package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	fastod "repro"
	"repro/internal/bench"
)

// tinyConfig keeps the experiment smoke tests to fractions of a second.
func tinyConfig() bench.Config {
	cfg := bench.QuickConfig()
	cfg.RowScales = []int{50, 100}
	cfg.RowScaleCols = 4
	cfg.ColScales = map[string][]int{"flight": {4}, "hepatitis": {4}, "ncvoter": {4}, "dbtesma": {4}}
	cfg.PruningRowScales = []int{50}
	cfg.PruningColScales = []int{4}
	cfg.LevelCols = 5
	cfg.LevelRows = 50
	cfg.ORDERBudget = fastod.Budget{Timeout: 200 * time.Millisecond, MaxNodes: 5000}
	return cfg
}

func TestRunFigures(t *testing.T) {
	cfg := tinyConfig()
	for _, fig := range []string{"4", "5", "6", "7"} {
		if err := run(context.Background(), fig, "", cfg); err != nil {
			t.Errorf("run(%s): %v", fig, err)
		}
	}
	if err := run(context.Background(), "bogus", "", cfg); err == nil {
		t.Error("expected error for unknown figure")
	}
}

func TestRunSingle(t *testing.T) {
	cfg := tinyConfig()
	if err := run(context.Background(), "single", "", cfg); err == nil {
		t.Error("expected error when -input is missing")
	}
	path := filepath.Join(t.TempDir(), "tiny.csv")
	content := "a,b\n1,2\n2,4\n3,6\n1,2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "single", path, cfg); err != nil {
		t.Errorf("run(single): %v", err)
	}
	if err := run(context.Background(), "single", path+".missing", cfg); err == nil {
		t.Error("expected error for missing input")
	}
}

// TestNegativeFlagsRejected: a negative -workers, -timeout or -max-nodes is
// not clamped or ignored but fails every experiment with Request.Validate's
// error, as it does in fastod.
func TestNegativeFlagsRejected(t *testing.T) {
	for _, c := range []struct {
		flag string
		set  func(*bench.Config)
	}{
		{"-workers", func(cfg *bench.Config) { cfg.Workers = -1 }},
		{"-timeout", func(cfg *bench.Config) { cfg.Budget.Timeout = -time.Second }},
		{"-max-nodes", func(cfg *bench.Config) { cfg.Budget.MaxNodes = -1 }},
	} {
		cfg := tinyConfig()
		c.set(&cfg)
		for _, fig := range []string{"4", "5", "6", "7"} {
			if err := run(context.Background(), fig, "", cfg); !errors.Is(err, fastod.ErrInvalidRequest) {
				t.Errorf("%s: run(%s) = %v, want an error wrapping fastod.ErrInvalidRequest", c.flag, fig, err)
			}
		}
	}
}
