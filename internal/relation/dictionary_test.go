package relation

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/leakcheck"
)

// atLeastProcs raises GOMAXPROCS to n for the test, so the column workers
// really run in parallel even on a one-CPU runner.
func atLeastProcs(t *testing.T, n int) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestEncodeSpecReportsLowestFailingColumn checks that parallel column
// encoding keeps the sequential error: with several bad columns, the error
// is the lowest-index one's, whichever worker finishes first. The low bad
// column is made slow (many distinct values, its bad value last in its
// dictionary) so that a later, cheap bad column usually fails first.
func TestEncodeSpecReportsLowestFailingColumn(t *testing.T) {
	leakcheck.Check(t)
	atLeastProcs(t, 4)
	const n = 50000
	slow := make([]string, n)
	for i := range slow {
		slow[i] = strconv.Itoa(i)
	}
	slow[n-1] = "not-a-number"
	cycle := func(vals ...string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = vals[i%len(vals)]
		}
		return out
	}
	rel := New("bad",
		NewColumn("ok", TypeInt, cycle("1", "2")),
		NewColumn("slow", TypeInt, slow),
		NewColumn("date", TypeDate, cycle("2012-01-01", "never")),
		NewColumn("float", TypeFloat, cycle("x", "1.5")),
	)
	_, want := EncodeSpec(New("bad", rel.Columns[1]), nil)
	if want == nil {
		t.Fatal("the slow column encodes without error")
	}
	for trial := 0; trial < 20; trial++ {
		if _, err := EncodeSpec(rel, nil); err == nil || err.Error() != want.Error() {
			t.Fatalf("trial %d: error %v, want the lowest bad column's %v", trial, err, want)
		}
	}
	// A spec error on a later column loses to an encoding error on an
	// earlier one, as in a sequential loop.
	spec := OrderSpec{{}, {}, {Collation: CollateRank}, {}}
	if _, err := EncodeSpec(rel, spec); err == nil || err.Error() != want.Error() {
		t.Fatalf("with a bad spec on column 2: error %v, want %v", err, want)
	}
}

// TestEncodeSpecWorkerPanicReachesCaller checks that a panic inside a column
// worker is raised again on the caller's goroutine, where the caller's own
// recover sees it, and that no worker is left behind.
func TestEncodeSpecWorkerPanicReachesCaller(t *testing.T) {
	leakcheck.Check(t)
	atLeastProcs(t, 4)
	cols := make([]Column, 8)
	for i := range cols {
		cols[i] = NewColumn("c"+strconv.Itoa(i), TypeInt, []string{"1", "2", "3"})
	}
	// An id past the dictionary: EncodeColumn indexes out of range.
	cols[5] = Column{Name: "broken", Type: TypeInt, Dict: []string{"1"}, IDs: []int32{0, 0, 3}}
	rel := New("panics", cols...)
	var rec any
	func() {
		defer func() { rec = recover() }()
		_, _ = EncodeSpec(rel, nil)
	}()
	if _, ok := rec.(runtime.Error); !ok {
		t.Fatalf("recovered %v (%T), want the worker's runtime error", rec, rec)
	}
}

// TestParallelKeepsSequentialContract drives the column worker pool
// directly: every index runs once, the lowest failing index's error wins,
// and a panic on any index reaches the caller.
func TestParallelKeepsSequentialContract(t *testing.T) {
	leakcheck.Check(t)
	atLeastProcs(t, 4)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		bad := map[int]bool{}
		for k := rng.Intn(4); k > 0; k-- {
			bad[rng.Intn(n)] = true
		}
		ran := make([]int, n)
		err := parallel(n, func(i int) error {
			ran[i]++
			if bad[i] {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		lowest := -1
		for i := n - 1; i >= 0; i-- {
			if bad[i] {
				lowest = i
			}
		}
		switch {
		case lowest < 0 && err != nil:
			t.Fatalf("trial %d: error %v with no failing index", trial, err)
		case lowest >= 0 && (err == nil || err.Error() != fmt.Sprintf("index %d", lowest)):
			t.Fatalf("trial %d: error %v, want index %d", trial, err, lowest)
		}
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("trial %d: index %d ran %d times", trial, i, c)
			}
		}
	}
	boom := errors.New("boom")
	var rec any
	func() {
		defer func() { rec = recover() }()
		_ = parallel(16, func(i int) error {
			if i == 11 {
				panic(boom)
			}
			return nil
		})
	}()
	if rec != boom {
		t.Fatalf("recovered %v, want the worker's panic value", rec)
	}
}

// TestSniffTypeOnDistinctValues is the property the dictionary sniff rests
// on: SniffType of a column's values equals SniffType of its distinct
// values, in any order. Columns draw from one to three token kinds, so
// every type is sniffed, and from values at every parser edge: signs, zero
// and space padding, int64 overflow, floats, NaN and Inf, four date
// layouts, and empty values.
func TestSniffTypeOnDistinctValues(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	kinds := []func() string{
		func() string { return strconv.Itoa(rng.Intn(2001) - 1000) },
		func() string { return "+" + strconv.Itoa(rng.Intn(100)) },
		func() string { return fmt.Sprintf("%06d", rng.Intn(1000)) },
		func() string { return fmt.Sprintf("%*d ", 1+rng.Intn(6), rng.Intn(100)) },
		func() string {
			return []string{"9223372036854775807", "9223372036854775808", "-9223372036854775809", "123456789012345678901"}[rng.Intn(4)]
		},
		func() string { return strconv.FormatFloat(rng.NormFloat64()*1e3, 'f', -1, 64) },
		func() string { return []string{"1e3", ".5", "-0.0", "6.02E23", "1_0"}[rng.Intn(5)] },
		func() string { return []string{"NaN", "nan", "Inf", "-Inf", "+inf", "infinity"}[rng.Intn(6)] },
		func() string { return fmt.Sprintf("20%02d-%02d-%02d", rng.Intn(30), 1+rng.Intn(12), 1+rng.Intn(28)) },
		func() string { return fmt.Sprintf("20%02d/%02d/%02d", rng.Intn(30), 1+rng.Intn(12), 1+rng.Intn(28)) },
		func() string { return fmt.Sprintf("%02d/%02d/20%02d", 1+rng.Intn(12), 1+rng.Intn(28), rng.Intn(30)) },
		func() string { return fmt.Sprintf("20%02d-01-02T15:04:05Z", rng.Intn(30)) },
		func() string { return []string{"", " ", "  "}[rng.Intn(3)] },
		func() string { return []string{"abc", "1O", "0x10", "2012-13-01"}[rng.Intn(4)] },
	}
	seen := map[Type]int{}
	for trial := 0; trial < 3000; trial++ {
		pick := rng.Perm(len(kinds))[:1+rng.Intn(3)]
		values := make([]string, rng.Intn(30))
		for i := range values {
			values[i] = kinds[pick[rng.Intn(len(pick))]]()
		}
		want := SniffType(values)
		seen[want]++
		dict := NewColumn("c", TypeString, values).Dict
		if got := SniffType(dict); got != want {
			t.Fatalf("SniffType(%q) = %v, of its dictionary %q = %v", values, want, dict, got)
		}
		rng.Shuffle(len(dict), func(i, j int) { dict[i], dict[j] = dict[j], dict[i] })
		if got := SniffType(dict); got != want {
			t.Fatalf("SniffType(%q) = %v, of its shuffled distinct values %q = %v", values, want, dict, got)
		}
	}
	for _, typ := range []Type{TypeString, TypeInt, TypeFloat, TypeDate} {
		if seen[typ] < 50 {
			t.Errorf("only %d of 3000 columns sniffed as %v; the generator no longer covers it", seen[typ], typ)
		}
	}
}

// TestInternTable checks the interning table against a map: ids are dense
// in first-seen order and stable across growth, and a reserved table
// interns up to its reservation without allocating.
func TestInternTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, domain := range []int{1, 10, 1000, 100000} {
		tab := newInternTable()
		want := map[string]int32{}
		for i := 0; i < 50000; i++ {
			v := strconv.Itoa(rng.Intn(domain))
			id, ok := want[v]
			if !ok {
				id = int32(len(want))
				want[v] = id
			}
			if got := tab.intern(v); got != id {
				t.Fatalf("domain %d: intern(%q) = %d, want %d", domain, v, got, id)
			}
		}
		dict := tab.dict()
		for v, id := range want {
			if dict[id] != v {
				t.Fatalf("domain %d: dict[%d] = %q, want %q", domain, id, dict[id], v)
			}
		}
	}
	values := make([]string, 5000)
	size := 0
	for i := range values {
		values[i] = strconv.Itoa(i)
		size += len(values[i])
	}
	// reserve allocates the value arena, its ends and the slots; interning
	// adds nothing.
	if allocs := testing.AllocsPerRun(5, func() {
		tab := newInternTable()
		tab.reserve(len(values), size)
		for _, v := range values {
			tab.intern(v)
		}
	}); allocs != 3 {
		t.Errorf("reserving and filling a table allocated %v times, want 3", allocs)
	}
}
