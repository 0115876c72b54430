package main

import (
	"context"
	"reflect"
	"runtime"
	"testing"
)

// The benchmark's self-test: every workload at tiny sizes, checked for the
// shape of its output and for inputs fixed by the seed. Run it with
// `go test` from this directory.

func tinyRun(t *testing.T, workload string, seed int64, trace bool) *outcome {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 1, trace: trace, tiny: true, outDir: t.TempDir()}
	out, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s seed %d trace %t: %v", workload, seed, trace, err)
	}
	if !out.correct || out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%s seed %d trace %t: correct=%t attempted=%d failed=%d notes=%q",
			workload, seed, trace, out.correct, out.attempted, out.failed, out.notes)
	}
	return out
}

func TestEveryMetricAppearsWithItsUnit(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			out := tinyRun(t, w, 7, trace)
			names := append(append([]metricName(nil), endToEndMetrics...), ungatedMetrics...)
			if trace {
				names = layerMetrics
			}
			if len(out.metrics) != len(names) {
				t.Errorf("%s trace %t: %d metrics, want %d", w, trace, len(out.metrics), len(names))
			}
			for _, n := range names {
				m, ok := out.metrics[n.name]
				switch {
				case !ok:
					t.Errorf("%s trace %t: %s missing", w, trace, n.name)
				case m.Unit != n.unit:
					t.Errorf("%s trace %t: %s in %q, want %q", w, trace, n.name, m.Unit, n.unit)
				case !trace && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, n.name, m.Value)
				}
			}
			if trace {
				if len(out.tracer.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w)
				}
				if _, err := out.tracer.write(t.TempDir(), w, 7); err != nil {
					t.Errorf("%s: %v", w, err)
				}
			}
		}
	}
}

func TestSeedFixesInputsAndServeClasses(t *testing.T) {
	for _, w := range workloads {
		a, b, c := tinyRun(t, w, 7, false), tinyRun(t, w, 7, false), tinyRun(t, w, 8, false)
		if a.inputDigest != b.inputDigest {
			t.Errorf("%s: seed 7 gave inputs %s and %s", w, a.inputDigest, b.inputDigest)
		}
		if a.inputDigest == c.inputDigest {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w)
		}
		if !reflect.DeepEqual(a.classes, b.classes) {
			t.Errorf("%s: seed 7 gave classes %v and %v", w, a.classes, b.classes)
		}
		if w == "serve" {
			for _, k := range []string{"hits", "misses", "uploads"} {
				if a.classes[k] == 0 {
					t.Errorf("serve: no %s in %v", k, a.classes)
				}
			}
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median(xs); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	children := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 40},  // overlaps the first
		{Parent: 1, Start: 90, End: 120}, // runs past the parent
	}
	if got := covered(parent, children); got != 40 {
		t.Errorf("covered = %v, want 40 (10..40 and 90..100)", got)
	}
}

func TestSpeedProbeAllocatesAlmostNothing(t *testing.T) {
	p := newSpeedProbe()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.run(20)
	runtime.ReadMemStats(&after)
	// Its goroutines are all a probe allocates; its buffers are reused.
	if per := (after.TotalAlloc - before.TotalAlloc) / 20; per > 4<<10 {
		t.Errorf("a probe allocates %d bytes, want under 4 KiB: it would count in alloc_mb_per_op", per)
	}
	if len(p.samples) != 20 {
		t.Fatalf("%d samples from 20 probes", len(p.samples))
	}
	want := nominalProbeMs / median(p.samples)
	if sp := p.finish(); sp.factor != want || !(sp.factor > 0) || sp.probes != 20 {
		t.Errorf("finish = %+v, want factor %v from 20 probes", sp, want)
	}
}
