package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// Config scales the experiments. The paper runs on hundreds of thousands of
// tuples and up to 40 attributes on a server-class machine; the defaults here
// finish on a laptop in a few minutes while preserving the curves' shapes.
// Quick mode shrinks them further for use inside `go test -bench`.
type Config struct {
	// Seed makes dataset generation deterministic.
	Seed int64
	// Workers is passed through as the engine Workers of every FASTOD and TANE
	// run (both share the level-parallel lattice engine). DefaultConfig and
	// QuickConfig pin it to 1 (sequential) so the figures stay comparable
	// with the paper's single-threaded measurements; set 0 (all CPUs) or
	// higher explicitly to measure the parallel engine. ORDER remains
	// single-threaded (its depth-first list-lattice search does not go
	// through the engine).
	Workers int
	// ORDERBudget bounds each ORDER run (it is factorial in attributes).
	ORDERBudget lattice.Budget
	// Budget, when non-zero, bounds each FASTOD and TANE run; interrupted
	// runs are reported as partial measurements (TimedOut set), not errors.
	Budget lattice.Budget
	// RowScales lists the tuple counts for the row-scalability experiment
	// (Figure 4), applied to every dataset.
	RowScales []int
	// RowScaleCols is the attribute count used in Figure 4 (10 in the paper).
	RowScaleCols int
	// ColScales lists the attribute counts per dataset for Figure 5.
	ColScales map[string][]int
	// PruningRowScales / PruningColScales configure Figure 6 (flight only).
	PruningRowScales []int
	PruningColScales []int
	// LevelCols / LevelRows configure Figure 7.
	LevelCols int
	LevelRows int
}

// DefaultConfig returns the laptop-scale configuration odbench runs without
// -quick.
func DefaultConfig() Config {
	return Config{
		Seed:         2017,
		Workers:      1,
		ORDERBudget:  lattice.Budget{Timeout: 20 * time.Second, MaxNodes: 1_500_000},
		RowScales:    []int{2000, 4000, 6000, 8000, 10000},
		RowScaleCols: 10,
		ColScales: map[string][]int{
			"flight":    {5, 10, 15, 18},
			"hepatitis": {5, 10, 12, 14},
			"ncvoter":   {5, 8, 10, 12},
			"dbtesma":   {5, 10, 15, 18},
		},
		PruningRowScales: []int{2000, 4000, 6000, 8000, 10000},
		PruningColScales: []int{4, 6, 8, 10, 12},
		LevelCols:        16,
		LevelRows:        1000,
	}
}

// QuickConfig returns a much smaller configuration used by the Go benchmarks
// and smoke tests.
func QuickConfig() Config {
	return Config{
		Seed:         2017,
		Workers:      1,
		ORDERBudget:  lattice.Budget{Timeout: 2 * time.Second, MaxNodes: 100_000},
		RowScales:    []int{200, 400, 600, 800, 1000},
		RowScaleCols: 8,
		ColScales: map[string][]int{
			"flight":    {4, 6, 8, 10},
			"hepatitis": {4, 6, 8, 10},
			"ncvoter":   {4, 6, 8},
			"dbtesma":   {4, 6, 8, 10},
		},
		PruningRowScales: []int{200, 400, 600, 800, 1000},
		PruningColScales: []int{4, 6, 8, 10},
		LevelCols:        10,
		LevelRows:        300,
	}
}

// Figure4 reproduces Exp-1/Exp-3/Exp-4 of the paper: runtime and output size
// of TANE, FASTOD and ORDER while the number of tuples grows, on the
// flight-, ncvoter- and dbtesma-like datasets with a fixed attribute count.
func Figure4(ctx context.Context, cfg Config) ([]Measurement, error) {
	datasets := []string{"flight", "ncvoter", "dbtesma"}
	var out []Measurement
	for _, name := range datasets {
		gen, err := GeneratorByName(name)
		if err != nil {
			return nil, err
		}
		for _, rows := range cfg.RowScales {
			if ctx.Err() != nil {
				return out, nil
			}
			enc, err := Encode(gen, rows, cfg.RowScaleCols, cfg.Seed)
			if err != nil {
				return nil, err
			}
			m, err := RunTANE(ctx, enc, name, lattice.Config{Workers: cfg.Workers, Budget: cfg.Budget})
			if err != nil {
				return nil, err
			}
			out = append(out, m)
			m, err = RunFASTOD(ctx, enc, name, core.Options{Workers: cfg.Workers, Budget: cfg.Budget})
			if err != nil {
				return nil, err
			}
			out = append(out, m)
			m, err = RunORDER(ctx, enc, name, cfg.ORDERBudget)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// Figure5 reproduces Exp-2/Exp-3/Exp-4: runtime and output size of TANE,
// FASTOD and ORDER while the number of attributes grows, on all four
// datasets with a fixed tuple count.
func Figure5(ctx context.Context, cfg Config) ([]Measurement, error) {
	var out []Measurement
	for _, gen := range Generators() {
		scales, ok := cfg.ColScales[gen.Name]
		if !ok {
			continue
		}
		for _, cols := range scales {
			if ctx.Err() != nil {
				return out, nil
			}
			enc, err := Encode(gen, gen.BaseRows, cols, cfg.Seed)
			if err != nil {
				return nil, err
			}
			m, err := RunTANE(ctx, enc, gen.Name, lattice.Config{Workers: cfg.Workers, Budget: cfg.Budget})
			if err != nil {
				return nil, err
			}
			out = append(out, m)
			m, err = RunFASTOD(ctx, enc, gen.Name, core.Options{Workers: cfg.Workers, Budget: cfg.Budget})
			if err != nil {
				return nil, err
			}
			out = append(out, m)
			m, err = RunORDER(ctx, enc, gen.Name, cfg.ORDERBudget)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// Figure6 reproduces Exp-5/Exp-6: FASTOD with and without its pruning rules,
// scaling rows (at RowScaleCols attributes) and columns (at LevelRows tuples)
// on the flight-like dataset. The un-pruned variant counts every valid OD,
// which is what the paper reports as the number of redundant ODs.
func Figure6(ctx context.Context, cfg Config) ([]Measurement, error) {
	gen, err := GeneratorByName("flight")
	if err != nil {
		return nil, err
	}
	var out []Measurement
	for _, rows := range cfg.PruningRowScales {
		if ctx.Err() != nil {
			return out, nil
		}
		enc, err := Encode(gen, rows, cfg.RowScaleCols, cfg.Seed)
		if err != nil {
			return nil, err
		}
		m, err := RunFASTOD(ctx, enc, "flight", core.Options{Workers: cfg.Workers, Budget: cfg.Budget})
		if err != nil {
			return nil, err
		}
		out = append(out, m)
		m, err = RunFASTOD(ctx, enc, "flight", core.Options{Workers: cfg.Workers, Budget: cfg.Budget, DisablePruning: true, CountOnly: true})
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	for _, cols := range cfg.PruningColScales {
		if ctx.Err() != nil {
			return out, nil
		}
		enc, err := Encode(gen, cfg.LevelRows, cols, cfg.Seed)
		if err != nil {
			return nil, err
		}
		m, err := RunFASTOD(ctx, enc, "flight", core.Options{Workers: cfg.Workers, Budget: cfg.Budget})
		if err != nil {
			return nil, err
		}
		out = append(out, m)
		m, err = RunFASTOD(ctx, enc, "flight", core.Options{Workers: cfg.Workers, Budget: cfg.Budget, DisablePruning: true, CountOnly: true})
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// LevelMeasurement is one row of the Figure 7 table: per-lattice-level
// runtime and OD counts.
type LevelMeasurement struct {
	Level       int
	Nodes       int
	Elapsed     time.Duration
	Constancy   int
	OrderCompat int
}

// Figure7 reproduces Exp-7: the time spent and the ODs found at each level of
// the set-containment lattice on the flight-like dataset.
func Figure7(ctx context.Context, cfg Config) ([]LevelMeasurement, error) {
	gen, err := GeneratorByName("flight")
	if err != nil {
		return nil, err
	}
	enc, err := Encode(gen, cfg.LevelRows, cfg.LevelCols, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res, err := core.DiscoverContext(ctx, enc, core.Options{Workers: cfg.Workers, Budget: cfg.Budget, CollectLevelStats: true})
	if err != nil {
		return nil, err
	}
	out := make([]LevelMeasurement, 0, len(res.Levels))
	for _, ls := range res.Levels {
		out = append(out, LevelMeasurement{
			Level:       ls.Level,
			Nodes:       ls.Nodes,
			Elapsed:     ls.Elapsed,
			Constancy:   ls.Constancy,
			OrderCompat: ls.OrderCompat,
		})
	}
	return out, nil
}

// FormatLevelTable renders Figure 7's rows.
func FormatLevelTable(title string, ms []LevelMeasurement) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-6s %-8s %-14s %s\n", "level", "nodes", "time", "#ODs (#FDs + #OCDs)")
	for _, m := range ms {
		total := m.Constancy + m.OrderCompat
		fmt.Fprintf(&b, "%-6d %-8d %-14v %d (%d + %d)\n",
			m.Level, m.Nodes, m.Elapsed.Round(time.Microsecond), total, m.Constancy, m.OrderCompat)
	}
	return b.String()
}

// Table1 runs the three algorithms on one dataset configuration; it backs the
// odbench "single" mode used for ad-hoc comparisons on user CSV files. The
// FASTOD/TANE budget and worker count come from cfg (ORDER keeps its own
// budget, as in the figure experiments).
func Table1(ctx context.Context, enc *relation.Encoded, name string, cfg Config) ([]Measurement, error) {
	var out []Measurement
	m, err := RunTANE(ctx, enc, name, lattice.Config{Workers: cfg.Workers, Budget: cfg.Budget})
	if err != nil {
		return nil, err
	}
	out = append(out, m)
	m, err = RunFASTOD(ctx, enc, name, core.Options{Workers: cfg.Workers, Budget: cfg.Budget})
	if err != nil {
		return nil, err
	}
	out = append(out, m)
	m, err = RunORDER(ctx, enc, name, cfg.ORDERBudget)
	if err != nil {
		return nil, err
	}
	out = append(out, m)
	return out, nil
}
