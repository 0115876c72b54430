package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunChecksRules(t *testing.T) {
	csv := writeTemp(t, "emp.csv",
		"sal,tax,posit\n5000,1000,secr\n8000,2000,mngr\n10000,3000,dir\n4500,900,secr\n6000,1500,mngr\n8000,2000,dir\n")
	rules := writeTemp(t, "rules.txt", `
# rules
[sal] -> [tax]
{sal}: [] -> tax
{posit}: [] -> sal
`)
	failures, err := run(os.Stdout, csv, rules, 0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if failures != 1 {
		t.Errorf("failures = %d, want 1 (posit does not determine sal)", failures)
	}

	// A generous threshold turns the failure into "almost holds".
	failures, err = run(os.Stdout, csv, rules, 0.6)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if failures != 0 {
		t.Errorf("failures = %d, want 0 with threshold 0.6", failures)
	}
}

func TestRunErrors(t *testing.T) {
	csv := writeTemp(t, "emp.csv", "a,b\n1,2\n")
	rules := writeTemp(t, "rules.txt", "[a] -> [b]\n")
	for _, threshold := range []float64{-1, math.NaN()} {
		if _, err := run(os.Stdout, csv, rules, threshold); err == nil {
			t.Errorf("threshold %v should error", threshold)
		}
	}
	if _, err := run(os.Stdout, csv+".missing", rules, 0); err == nil {
		t.Error("missing csv should error")
	}
	if _, err := run(os.Stdout, csv, rules+".missing", 0); err == nil {
		t.Error("missing rules file should error")
	}
	badRules := writeTemp(t, "bad.txt", "not an od\n")
	if _, err := run(os.Stdout, csv, badRules, 0); err == nil {
		t.Error("unparseable rules should error")
	}
	unknownCol := writeTemp(t, "unknown.txt", "[a] -> [zzz]\n")
	if _, err := run(os.Stdout, csv, unknownCol, 0); err == nil {
		t.Error("unknown column should error")
	}
}

func TestRunHonorsOrderModifiers(t *testing.T) {
	// sal increases while tax increases, so [sal] -> [tax] holds ascending and
	// [sal DESC] -> [tax DESC] holds too — but the mixed-direction rule
	// [sal DESC] -> [tax] is a swap on any two distinct rows.
	csv := writeTemp(t, "emp.csv",
		"sal,tax\n5000,1000\n8000,2000\n10000,3000\n")
	rules := writeTemp(t, "rules.txt", `
[sal] -> [tax]
[sal desc] -> [tax desc]
[sal desc] -> [tax]
`)
	failures, err := run(os.Stdout, csv, rules, 0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if failures != 1 {
		t.Errorf("failures = %d, want 1 (only the mixed-direction rule is a swap)", failures)
	}
}

func TestRunHonorsNullPlacement(t *testing.T) {
	// With NULLS FIRST (default) the empty sal sorts before 10 while its tax
	// (99) sorts after the others' — a swap. Pinning NULLS LAST on both sides
	// moves the null row to the end on the left and its large tax is last on
	// the right, so the rule holds.
	csv := writeTemp(t, "emp.csv", "sal,tax\n10,1\n20,2\n,99\n")
	holds := writeTemp(t, "holds.txt", "[sal NULLS LAST] -> [tax]\n")
	failures, err := run(os.Stdout, csv, holds, 0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if failures != 0 {
		t.Errorf("failures = %d, want 0 under NULLS LAST", failures)
	}
	fails := writeTemp(t, "fails.txt", "[sal] -> [tax]\n")
	failures, err = run(os.Stdout, csv, fails, 0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if failures != 1 {
		t.Errorf("failures = %d, want 1 under the default NULLS FIRST", failures)
	}
}
