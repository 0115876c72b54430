package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	fastod "repro"
)

func TestGenerators(t *testing.T) {
	gens := Generators()
	if len(gens) != 4 {
		t.Fatalf("expected 4 generators, got %d", len(gens))
	}
	for _, g := range gens {
		if ds := g.Build(50, 6, 1); ds.NumCols() != 6 {
			t.Errorf("%s: cols = %d", g.Name, ds.NumCols())
		}
	}
	if _, err := GeneratorByName("flight"); err != nil {
		t.Error(err)
	}
	if _, err := GeneratorByName("nope"); err == nil {
		t.Error("expected error for unknown generator")
	}
}

func TestRunnersProduceMeasurements(t *testing.T) {
	gen, err := GeneratorByName("flight")
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Build(100, 6, 1)
	measure := func(req fastod.Request) Measurement {
		t.Helper()
		m, err := Measure(context.Background(), ds, "flight", req)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	mF := measure(fastod.Request{})
	if mF.Algorithm != AlgFASTOD || mF.Counts.Total == 0 || mF.Rows != 100 || mF.Cols != 6 || mF.Elapsed <= 0 {
		t.Errorf("FASTOD measurement = %+v", mF)
	}
	mNP := measure(fastod.Request{FASTOD: fastod.FASTODRunOptions{DisablePruning: true, CountOnly: true}})
	if mNP.Algorithm != AlgFASTODNoPruning {
		t.Errorf("no-pruning algorithm label = %q", mNP.Algorithm)
	}
	if mNP.Counts.Total < mF.Counts.Total {
		t.Errorf("no-pruning found fewer ODs (%d) than pruned (%d)", mNP.Counts.Total, mF.Counts.Total)
	}

	mT := measure(fastod.Request{Algorithm: fastod.AlgorithmTANE})
	if mT.Counts.Constancy != mF.Counts.Constancy {
		t.Errorf("TANE FD count %d != FASTOD constancy count %d", mT.Counts.Constancy, mF.Counts.Constancy)
	}

	mO := measure(fastod.Request{
		Algorithm:  fastod.AlgorithmORDER,
		RunOptions: fastod.RunOptions{Budget: fastod.Budget{Timeout: 2 * time.Second, MaxNodes: 50000}},
	})
	if mO.Algorithm != AlgORDER || mO.ListODs == 0 {
		t.Errorf("ORDER measurement = %+v", mO)
	}

	// The harness measures the three algorithms of the paper's figures only.
	if _, err := Measure(context.Background(), ds, "flight", fastod.Request{Algorithm: fastod.AlgorithmBidirectional}); err == nil {
		t.Error("Measure accepted a bidirectional run")
	}

	table := FormatTable("smoke", []Measurement{mF, mT, mO, mNP})
	if !strings.Contains(table, "FASTOD") || !strings.Contains(table, "TANE") {
		t.Errorf("FormatTable output missing algorithms:\n%s", table)
	}
}

func TestMeasurementStringMarksBudget(t *testing.T) {
	m := Measurement{Dataset: "x", Algorithm: AlgORDER, TimedOut: true}
	if !strings.Contains(m.String(), "*budget") {
		t.Error("timed-out measurement should be marked")
	}
}

func TestFiguresQuickConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke tests skipped in -short mode")
	}
	cfg := QuickConfig()
	// Shrink further: the goal here is only to exercise every code path.
	cfg.RowScales = []int{100, 200}
	cfg.RowScaleCols = 5
	cfg.ColScales = map[string][]int{"flight": {4, 5}, "hepatitis": {4}, "ncvoter": {4}, "dbtesma": {4}}
	cfg.PruningRowScales = []int{100, 200}
	cfg.PruningColScales = []int{4, 5}
	cfg.LevelCols = 6
	cfg.LevelRows = 100
	cfg.ORDERBudget = fastod.Budget{Timeout: time.Second, MaxNodes: 20000}

	f4, err := Figure4(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	// 3 datasets x 2 row scales x 3 algorithms.
	if len(f4) != 18 {
		t.Errorf("Figure4 measurements = %d, want 18", len(f4))
	}

	f5, err := Figure5(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	if len(f5) != (2+1+1+1)*3 {
		t.Errorf("Figure5 measurements = %d, want 15", len(f5))
	}

	f6, err := Figure6(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	if len(f6) != (2+2)*2 {
		t.Errorf("Figure6 measurements = %d, want 8", len(f6))
	}
	// The un-pruned runs must never find fewer ODs than the pruned runs on
	// the same configuration.
	for i := 0; i+1 < len(f6); i += 2 {
		if f6[i].Algorithm != AlgFASTOD || f6[i+1].Algorithm != AlgFASTODNoPruning {
			t.Fatalf("Figure6 ordering unexpected at %d: %s then %s", i, f6[i].Algorithm, f6[i+1].Algorithm)
		}
		if f6[i+1].Counts.Total < f6[i].Counts.Total {
			t.Errorf("no-pruning count %d < pruned count %d at %d rows/%d cols",
				f6[i+1].Counts.Total, f6[i].Counts.Total, f6[i].Rows, f6[i].Cols)
		}
	}

	f7, err := Figure7(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Figure7: %v", err)
	}
	if len(f7) == 0 || f7[0].Level != 1 {
		t.Errorf("Figure7 levels = %+v", f7)
	}
	out := FormatLevelTable("levels", f7)
	if !strings.Contains(out, "level") {
		t.Errorf("FormatLevelTable output:\n%s", out)
	}

	// Table1 single-shot comparison.
	cfg.Workers = 4
	single, err := Table1(context.Background(), fastod.SyntheticFlight(100, 5, cfg.Seed), cfg)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(single) != 3 {
		t.Errorf("Table1 measurements = %d, want 3", len(single))
	}
}

// TestQuickORDERStopsAtItsNodeBound runs Figure 5's slowest quick ORDER
// point twice: the node bound, not the clock, must cut both runs, so they
// find the same dependencies.
func TestQuickORDERStopsAtItsNodeBound(t *testing.T) {
	if testing.Short() {
		t.Skip("quick ORDER runs skipped in -short mode")
	}
	cfg := QuickConfig()
	gen, err := GeneratorByName("ncvoter")
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Build(gen.BaseRows, 8, cfg.Seed)
	req := cfg.request(fastod.AlgorithmORDER)
	var counts [2]fastod.Count
	for run := range counts {
		rep, err := ds.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Interrupted || rep.Stats.NodesVisited != req.Budget.MaxNodes {
			t.Fatalf("run %d: interrupted %v after %d nodes, want the bound of %d to cut it",
				run, rep.Interrupted, rep.Stats.NodesVisited, req.Budget.MaxNodes)
		}
		counts[run] = rep.ORDER.Counts
	}
	if counts[0] != counts[1] {
		t.Errorf("two runs of one seed found %v and %v", counts[0], counts[1])
	}
}

func TestDefaultAndQuickConfigs(t *testing.T) {
	def := DefaultConfig()
	if len(def.RowScales) == 0 || def.RowScaleCols == 0 || len(def.ColScales) != 4 {
		t.Errorf("DefaultConfig incomplete: %+v", def)
	}
	quick := QuickConfig()
	if quick.RowScales[len(quick.RowScales)-1] > def.RowScales[len(def.RowScales)-1] {
		t.Error("quick config should not exceed the default config scales")
	}
}
