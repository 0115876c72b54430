package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	fastod "repro"
)

// Config scales the experiments. The paper runs on hundreds of thousands of
// tuples and up to 40 attributes on a server-class machine; the defaults here
// finish on a laptop in a few minutes while preserving the curves' shapes.
// Quick mode shrinks them further for use inside `go test -bench`.
type Config struct {
	// Seed makes dataset generation deterministic.
	Seed int64
	// Workers is the RunOptions.Workers of every run. DefaultConfig and
	// QuickConfig pin it to 1 (sequential) so the figures stay comparable
	// with the paper's single-threaded measurements; set 0 (all CPUs) or
	// higher explicitly to measure the parallel engine. ORDER ignores it
	// (its list-lattice search is sequential).
	Workers int
	// ORDERBudget bounds each ORDER run (it is factorial in attributes).
	ORDERBudget fastod.Budget
	// Budget, when non-zero, bounds each FASTOD and TANE run; interrupted
	// runs are reported as partial measurements (TimedOut set), not errors.
	Budget fastod.Budget
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
		ORDERBudget:  fastod.Budget{Timeout: 20 * time.Second, MaxNodes: 1_500_000},
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
// and smoke tests. Its ORDER runs are bounded by nodes alone, so the quick
// figures are a function of the seed: a timeout would cut a run wherever the
// machine's speed left it. The slowest quick shape, ncvoter-like 1000×8,
// reaches the bound in 0.5–0.8 s on a 2-vCPU Xeon VM.
func QuickConfig() Config {
	return Config{
		Seed:         2017,
		Workers:      1,
		ORDERBudget:  fastod.Budget{MaxNodes: 1000},
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

// request is the run of one algorithm under cfg: its worker count, and
// ORDERBudget for ORDER or Budget for the others.
func (c Config) request(alg fastod.Algorithm) fastod.Request {
	budget := c.Budget
	if alg == fastod.AlgorithmORDER {
		budget = c.ORDERBudget
	}
	return fastod.Request{Algorithm: alg, RunOptions: fastod.RunOptions{Workers: c.Workers, Budget: budget}}
}

// comparison is the paper's TANE, FASTOD, ORDER sequence under cfg.
func (c Config) comparison() []fastod.Request {
	return []fastod.Request{
		c.request(fastod.AlgorithmTANE),
		c.request(fastod.AlgorithmFASTOD),
		c.request(fastod.AlgorithmORDER),
	}
}

// point is one dataset shape of an experiment series.
type point struct {
	gen        DatasetGen
	rows, cols int
}

// sweep builds every point's dataset and measures reqs on it, in order. Once
// ctx is done it returns what it has measured, without an error.
func sweep(ctx context.Context, seed int64, points []point, reqs []fastod.Request) ([]Measurement, error) {
	var out []Measurement
	for _, p := range points {
		if ctx.Err() != nil {
			return out, nil
		}
		ms, err := measureAll(ctx, p.gen.Build(p.rows, p.cols, seed), p.gen.Name, reqs)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// measureAll measures reqs on one dataset, in order.
func measureAll(ctx context.Context, ds *fastod.Dataset, name string, reqs []fastod.Request) ([]Measurement, error) {
	out := make([]Measurement, 0, len(reqs))
	for _, req := range reqs {
		m, err := Measure(ctx, ds, name, req)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Figure4 reproduces Exp-1/Exp-3/Exp-4 of the paper: runtime and output size
// of TANE, FASTOD and ORDER while the number of tuples grows, on the
// flight-, ncvoter- and dbtesma-like datasets with a fixed attribute count.
func Figure4(ctx context.Context, cfg Config) ([]Measurement, error) {
	var points []point
	for _, name := range []string{"flight", "ncvoter", "dbtesma"} {
		gen, err := GeneratorByName(name)
		if err != nil {
			return nil, err
		}
		for _, rows := range cfg.RowScales {
			points = append(points, point{gen, rows, cfg.RowScaleCols})
		}
	}
	return sweep(ctx, cfg.Seed, points, cfg.comparison())
}

// Figure5 reproduces Exp-2/Exp-3/Exp-4: runtime and output size of TANE,
// FASTOD and ORDER while the number of attributes grows, on all four
// datasets with a fixed tuple count.
func Figure5(ctx context.Context, cfg Config) ([]Measurement, error) {
	var points []point
	for _, gen := range Generators() {
		for _, cols := range cfg.ColScales[gen.Name] {
			points = append(points, point{gen, gen.BaseRows, cols})
		}
	}
	return sweep(ctx, cfg.Seed, points, cfg.comparison())
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
	var points []point
	for _, rows := range cfg.PruningRowScales {
		points = append(points, point{gen, rows, cfg.RowScaleCols})
	}
	for _, cols := range cfg.PruningColScales {
		points = append(points, point{gen, cfg.LevelRows, cols})
	}
	pruned := cfg.request(fastod.AlgorithmFASTOD)
	unpruned := pruned
	unpruned.FASTOD = fastod.FASTODRunOptions{DisablePruning: true, CountOnly: true}
	return sweep(ctx, cfg.Seed, points, []fastod.Request{pruned, unpruned})
}

// Figure7 reproduces Exp-7: the time spent and the ODs found at each level of
// the set-containment lattice on the flight-like dataset.
func Figure7(ctx context.Context, cfg Config) ([]fastod.LevelStat, error) {
	req := cfg.request(fastod.AlgorithmFASTOD)
	req.FASTOD.CollectLevelStats = true
	rep, err := fastod.SyntheticFlight(cfg.LevelRows, cfg.LevelCols, cfg.Seed).Run(ctx, req)
	if err != nil {
		return nil, err
	}
	return rep.FASTOD.Levels, nil
}

// FormatLevelTable renders Figure 7's rows.
func FormatLevelTable(title string, levels []fastod.LevelStat) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-6s %-8s %-14s %s\n", "level", "nodes", "time", "#ODs (#FDs + #OCDs)")
	for _, l := range levels {
		fmt.Fprintf(&b, "%-6d %-8d %-14v %d (%d + %d)\n",
			l.Level, l.Nodes, l.Elapsed.Round(time.Microsecond), l.Constancy+l.OrderCompat, l.Constancy, l.OrderCompat)
	}
	return b.String()
}

// Table1 runs TANE, FASTOD and ORDER on one dataset, labelled with its name;
// it backs the odbench "single" mode used for ad-hoc comparisons on user CSV
// files. The budgets and worker count come from cfg, as in the figure
// experiments.
func Table1(ctx context.Context, ds *fastod.Dataset, cfg Config) ([]Measurement, error) {
	return measureAll(ctx, ds, ds.Name(), cfg.comparison())
}
