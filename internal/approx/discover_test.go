package approx

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/canonical"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/lattice"
	"repro/internal/relation"
)

func TestDiscoverValidation(t *testing.T) {
	if _, err := DiscoverContext(t.Context(), nil, 0, lattice.Config{}); err == nil {
		t.Error("nil relation must be rejected")
	}
	if _, err := DiscoverContext(t.Context(), &relation.Encoded{}, 0, lattice.Config{}); err == nil {
		t.Error("empty relation must be rejected")
	}
	enc := encode(t, datagen.Employees())
	if _, err := DiscoverContext(t.Context(), enc, -0.1, lattice.Config{}); err == nil {
		t.Error("negative threshold must be rejected")
	}
	if _, err := DiscoverContext(t.Context(), enc, 1.0, lattice.Config{}); err == nil {
		t.Error("threshold >= 1 must be rejected")
	}
	if _, err := DiscoverContext(t.Context(), enc, math.NaN(), lattice.Config{}); err == nil {
		t.Error("NaN threshold must be rejected")
	}
}

// TestDiscoverThresholdZeroMatchesExact: with threshold 0 the approximate
// discovery must return exactly the exact minimal set.
func TestDiscoverThresholdZeroMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 15; trial++ {
		rel := datagen.RandomStructuredRelation(2+rng.Intn(16), 4, 3, rng.Int63())
		enc := encode(t, rel)
		exact, err := core.DiscoverContext(t.Context(), enc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		approx, err := DiscoverContext(t.Context(), enc, 0, lattice.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(approx.ODs) != len(exact.ODs) {
			t.Fatalf("trial %d: approximate@0 found %d ODs, exact found %d\napprox: %v\nexact: %v",
				trial, len(approx.ODs), len(exact.ODs), approx.ODs, exact.ODs)
		}
		for i := range exact.ODs {
			if !approx.ODs[i].OD.Equal(exact.ODs[i]) {
				t.Fatalf("trial %d: OD %d = %v, want %v", trial, i, approx.ODs[i].OD, exact.ODs[i])
			}
			if approx.ODs[i].Error.Removals != 0 {
				t.Fatalf("trial %d: exact OD %v reported with non-zero error", trial, approx.ODs[i].OD)
			}
		}
	}
}

// TestDiscoverMonotoneInThreshold: raising the threshold can only make the
// covered dependency space grow (every OD implied at a lower threshold is
// implied at a higher one), and every reported OD must meet the threshold.
func TestDiscoverMonotoneInThreshold(t *testing.T) {
	enc := encode(t, datagen.NCVoterLike(200, 5, 7))
	thresholds := []float64{0, 0.05, 0.2, 0.5}
	var prev []Discovered
	for i, th := range thresholds {
		res, err := DiscoverContext(t.Context(), enc, th, lattice.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.ODs {
			if d.Error.Rate > th+1e-12 {
				t.Errorf("threshold %v: reported OD %v has error %v", th, d.OD, d.Error.Rate)
			}
		}
		if i > 0 {
			// Every previously reported OD must still be within threshold now,
			// and must be implied by the new output in the minimality sense:
			// some subset context with the same right-hand side is reported.
			cur := make([]canonical.OD, 0, len(res.ODs))
			for _, d := range res.ODs {
				cur = append(cur, d.OD)
			}
			cover := canonical.NewCover(cur)
			for _, d := range prev {
				if !cover.Implies(d.OD) {
					t.Errorf("threshold %v: OD %v from lower threshold no longer implied", th, d.OD)
				}
			}
		}
		prev = res.ODs
	}
}

// TestDiscoverApproximateFindsNearlyHoldingODs: corrupt a clean dataset
// slightly; exact discovery loses the OD but approximate discovery with a
// tolerant threshold recovers it.
func TestDiscoverApproximateFindsNearlyHoldingODs(t *testing.T) {
	// Two full years of days so d_year is not constant, then swap a few
	// d_year values between rows to create a small number of violations.
	clean := datagen.DateDim(730)
	dirty, _, err := datagen.InjectSwapViolations(clean, "d_year", 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	enc := encode(t, dirty)
	skIdx := 0 // d_date_sk
	yearIdx := 2
	target := canonical.NewOrderCompatible(0, skIdx, yearIdx) // {}: d_date_sk ~ d_year

	exact, err := core.DiscoverContext(t.Context(), enc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if canonical.NewCover(exact.ODs).Implies(target) {
		t.Fatal("corruption failed: exact discovery still implies the target OD")
	}

	res, err := DiscoverContext(t.Context(), enc, 0.05, lattice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ods := make([]canonical.OD, 0, len(res.ODs))
	for _, d := range res.ODs {
		ods = append(ods, d.OD)
	}
	if !canonical.NewCover(ods).Implies(target) {
		t.Error("approximate discovery at 5% should recover {}: d_date_sk ~ d_year")
	}
	if res.Counts().Total != len(res.ODs) {
		t.Error("Counts inconsistent with output length")
	}
	if res.Stats.NodesVisited == 0 {
		t.Error("stats not recorded")
	}
}

func TestDiscoverMaxLevel(t *testing.T) {
	enc := encode(t, datagen.Employees())
	res, err := DiscoverContext(t.Context(), enc, 0.1, lattice.Config{MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.ODs {
		if d.OD.Context.Len() > 1 {
			t.Errorf("OD %v exceeds MaxLevel=2", d.OD)
		}
	}
}

// TestDiscoverReportedODsAreMinimal: no reported OD has a reported subset
// context with the same right-hand side (context minimality), nor an
// approximately constant attribute in its context pair (Propagate analogue).
func TestDiscoverReportedODsAreMinimal(t *testing.T) {
	enc := encode(t, datagen.HepatitisLike(80, 6, 5))
	res, err := DiscoverContext(t.Context(), enc, 0.1, lattice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.ODs {
		for j, other := range res.ODs {
			if i == j || d.OD.Kind != other.OD.Kind {
				continue
			}
			sameRHS := d.OD.A == other.OD.A && d.OD.B == other.OD.B
			if sameRHS && other.OD.Context != d.OD.Context && other.OD.Context.IsSubsetOf(d.OD.Context) {
				t.Errorf("OD %v is not minimal: %v has a subset context", d.OD, other.OD)
			}
		}
	}
}

// differentialRelations builds the seeded datagen relations the differential
// suite runs over, mirroring internal/core/parallel_test.go (approximate
// discovery enumerates the full lattice, so the shapes are kept moderate).
func differentialRelations(t *testing.T) map[string]*relation.Encoded {
	t.Helper()
	rels := map[string]*relation.Relation{
		"flight-500x8":     datagen.FlightLike(500, 8, 2017),
		"ncvoter-400x6":    datagen.NCVoterLike(400, 6, 2017),
		"hepatitis-155x8":  datagen.HepatitisLike(155, 8, 2017),
		"random-200x5":     datagen.RandomRelation(200, 5, 4, 42),
		"structured-400x6": datagen.RandomStructuredRelation(400, 6, 3, 99),
	}
	out := make(map[string]*relation.Encoded, len(rels))
	for name, r := range rels {
		out[name] = encode(t, r)
	}
	return out
}

// TestParallelMatchesSequentialDifferential: a Workers=4 run must be
// indistinguishable from a Workers=1 run — same sorted OD list with the same
// measured errors, same node counter — on every seeded dataset, at an exact
// and a lenient threshold.
func TestParallelMatchesSequentialDifferential(t *testing.T) {
	for name, enc := range differentialRelations(t) {
		for _, threshold := range []float64{0, 0.05} {
			seq, err := DiscoverContext(t.Context(), enc, threshold, lattice.Config{Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			par, err := DiscoverContext(t.Context(), enc, threshold, lattice.Config{Workers: 4})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if par.Stats.NodesVisited != seq.Stats.NodesVisited {
				t.Errorf("%s@%v: NodesVisited = %d, want %d", name, threshold, par.Stats.NodesVisited, seq.Stats.NodesVisited)
			}
			if len(par.ODs) != len(seq.ODs) {
				t.Fatalf("%s@%v: %d ODs, want %d", name, threshold, len(par.ODs), len(seq.ODs))
			}
			for i := range seq.ODs {
				if par.ODs[i] != seq.ODs[i] {
					t.Fatalf("%s@%v: OD %d = %+v, want %+v", name, threshold, i, par.ODs[i], seq.ODs[i])
				}
			}
		}
	}
}

// TestParallelWorkerCounts sweeps worker counts on one dataset, including 0
// (GOMAXPROCS), oversubscription and the MaxLevel bound.
func TestParallelWorkerCounts(t *testing.T) {
	enc := encode(t, datagen.FlightLike(300, 6, 2017))
	const threshold = 0.02
	for _, opts := range []lattice.Config{{}, {MaxLevel: 3}} {
		seqOpts := opts
		seqOpts.Workers = 1
		want, err := DiscoverContext(t.Context(), enc, threshold, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{0, 2, 8, 64, -3} {
			parOpts := opts
			parOpts.Workers = w
			got, err := DiscoverContext(t.Context(), enc, threshold, parOpts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.ODs) != len(want.ODs) {
				t.Fatalf("workers=%d maxlevel=%d: %d ODs, want %d", w, opts.MaxLevel, len(got.ODs), len(want.ODs))
			}
			for i := range want.ODs {
				if got.ODs[i] != want.ODs[i] {
					t.Fatalf("workers=%d: OD %d = %+v, want %+v", w, i, got.ODs[i], want.ODs[i])
				}
			}
		}
	}
}

// TestRemovalLimitMatchesThreshold checks the count DiscoverContext bounds
// the removal kernels by: r <= removalLimit(rows, threshold) must hold
// exactly when r removals pass the threshold. It is checked on both sides of
// the limit, so an off-by-one either way fails.
func TestRemovalLimitMatchesThreshold(t *testing.T) {
	type tc struct {
		rows      int
		threshold float64
	}
	var cases []tc
	for _, rows := range []int{1, 3, 7, 155, 10_000, 20_000} {
		for _, threshold := range []float64{0, 0.01, 0.02, 0.03, 0.05, 0.1, 1.0 / 3, 0.7} {
			cases = append(cases, tc{rows, threshold})
		}
	}
	// threshold × rows rounds down to 28.999… in the first case and up to
	// exactly 10 in the second, so each needs one of the corrections.
	cases = append(cases, tc{100, 0.29}, tc{100, math.Nextafter(0.1, 0)})
	for _, c := range cases {
		limit := removalLimit(c.rows, c.threshold)
		for _, r := range []int{limit - 1, limit, limit + 1} {
			if passes := float64(r)/float64(c.rows) <= c.threshold; (r <= limit) != passes {
				t.Errorf("rows %d, threshold %v: limit %d, but %d removals pass = %v",
					c.rows, c.threshold, limit, r, passes)
			}
		}
	}
}

// TestReportedErrorsAreExact: the kernels' early returns must not reach the
// output. Every reported error equals ErrorOf's exact count.
func TestReportedErrorsAreExact(t *testing.T) {
	for name, enc := range differentialRelations(t) {
		for _, threshold := range []float64{0.01, 0.1} {
			res, err := DiscoverContext(t.Context(), enc, threshold, lattice.Config{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, d := range res.ODs {
				want, err := ErrorOf(enc, d.OD)
				if err != nil {
					t.Fatal(err)
				}
				if d.Error != want {
					t.Errorf("%s@%v: %v reported with error %+v, ErrorOf = %+v", name, threshold, d.OD, d.Error, want)
				}
			}
		}
	}
}
