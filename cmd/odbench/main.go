// Command odbench regenerates the paper's evaluation (Section 5) on the
// synthetic stand-in datasets: Figure 4 (scalability in tuples), Figure 5
// (scalability in attributes), Figure 6 (impact of pruning) and Figure 7
// (per-lattice-level behaviour). It prints the same series the paper plots —
// running time per algorithm plus "#ODs (#FDs + #OCDs)" — so the shapes can
// be compared with the paper's figures directly.
//
// Every run goes through fastod's Dataset.Run: a row of Figures 4–6 is one
// run timed by its own Report.Elapsed, and Figure 7's rows are one run's
// per-level statistics. The -workers, -timeout and -max-nodes flags are
// checked by Request.Validate, as fastod's are: a negative value fails the
// first run with the validation error, before anything is printed.
//
// Usage:
//
//	odbench -fig all            # run every experiment at the default scale
//	odbench -fig 5 -quick       # a fast, reduced-scale run
//	odbench -fig single -input my.csv   # compare the three algorithms on a CSV
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	fastod "repro"
	"repro/internal/bench"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "which experiment to run: 4, 5, 6, 7, all or single")
		quick    = flag.Bool("quick", false, "use the reduced-scale configuration")
		input    = flag.String("input", "", "CSV file for -fig single")
		seed     = flag.Int64("seed", 2017, "random seed for dataset generation")
		workers  = flag.Int("workers", 1, "FASTOD/TANE lattice worker goroutines (1 = sequential, matching the paper's single-threaded runs; 0 = all CPUs)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget per FASTOD/TANE run; interrupted runs are reported as partial *budget rows (0 = none)")
		maxNodes = flag.Int("max-nodes", 0, "lattice-node budget per FASTOD/TANE run (0 = none)")
	)
	flag.Parse()

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Budget = fastod.Budget{Timeout: *timeout, MaxNodes: *maxNodes}

	// Ctrl-C cancels the experiment cooperatively: in-flight runs stop
	// within one parallel chunk and whatever measurements completed are
	// still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *fig, *input, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "odbench: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, fig, input string, cfg bench.Config) error {
	switch fig {
	case "4":
		return runFigure4(ctx, cfg)
	case "5":
		return runFigure5(ctx, cfg)
	case "6":
		return runFigure6(ctx, cfg)
	case "7":
		return runFigure7(ctx, cfg)
	case "all":
		for _, f := range []func(context.Context, bench.Config) error{runFigure4, runFigure5, runFigure6, runFigure7} {
			if err := f(ctx, cfg); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	case "single":
		return runSingle(ctx, input, cfg)
	default:
		return fmt.Errorf("unknown figure %q (want 4, 5, 6, 7, all or single)", fig)
	}
}

func runFigure4(ctx context.Context, cfg bench.Config) error {
	start := time.Now()
	ms, err := bench.Figure4(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable("Figure 4: scalability in the number of tuples (Exp-1, Exp-3, Exp-4)", ms))
	fmt.Printf("(total experiment time %v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runFigure5(ctx context.Context, cfg bench.Config) error {
	start := time.Now()
	ms, err := bench.Figure5(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable("Figure 5: scalability in the number of attributes (Exp-2, Exp-3, Exp-4)", ms))
	fmt.Printf("(total experiment time %v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runFigure6(ctx context.Context, cfg bench.Config) error {
	start := time.Now()
	ms, err := bench.Figure6(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable("Figure 6: impact of pruning, FASTOD vs FASTOD-NoPruning (Exp-5, Exp-6)", ms))
	fmt.Printf("(total experiment time %v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runFigure7(ctx context.Context, cfg bench.Config) error {
	start := time.Now()
	ms, err := bench.Figure7(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatLevelTable(
		fmt.Sprintf("Figure 7: per-lattice-level behaviour, flight-like %d rows x %d columns (Exp-7)", cfg.LevelRows, cfg.LevelCols), ms))
	fmt.Printf("(total experiment time %v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func runSingle(ctx context.Context, input string, cfg bench.Config) error {
	if input == "" {
		return fmt.Errorf("-fig single requires -input")
	}
	ds, err := fastod.LoadCSVFile(input)
	if err != nil {
		return err
	}
	ms, err := bench.Table1(ctx, ds, cfg)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatTable("Algorithm comparison on "+ds.Name(), ms))
	return nil
}
