package order

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/lattice"
	"repro/internal/listod"
	"repro/internal/relation"
)

func encode(t *testing.T, r *relation.Relation) *relation.Encoded {
	t.Helper()
	enc, err := relation.Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return enc
}

func TestDiscoverValidation(t *testing.T) {
	if _, err := DiscoverContext(t.Context(), nil, lattice.Config{}); err == nil {
		t.Error("nil relation must be rejected")
	}
	if _, err := DiscoverContext(t.Context(), &relation.Encoded{}, lattice.Config{}); err == nil {
		t.Error("empty relation must be rejected")
	}
}

func TestDiscoverTable1(t *testing.T) {
	enc := encode(t, datagen.Employees())
	res, err := DiscoverContext(t.Context(), enc, lattice.Config{})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if res.Stats.Interrupted {
		t.Fatal("Table 1 should not time out")
	}
	if len(res.ODs) == 0 {
		t.Fatal("expected ODs on Table 1")
	}
	// Every reported list OD must hold on the instance (soundness).
	for _, od := range res.ODs {
		if !listod.Holds(enc, od.Left, od.Right) {
			t.Errorf("ORDER reported %v which does not hold", od.Names(enc.ColumnNames))
		}
	}
	// The canonical image must hold too and be consistent with the counts.
	for _, od := range res.Canonical {
		if !canonical.MustHold(enc, od) {
			t.Errorf("canonical image %v does not hold", od)
		}
	}
	if res.Counts.Total != len(res.Canonical) {
		t.Errorf("Counts.Total = %d, len(Canonical) = %d", res.Counts.Total, len(res.Canonical))
	}
	if res.Stats.NodesVisited == 0 {
		t.Error("stats not recorded")
	}
}

// TestORDERSoundRelativeToFASTOD: everything ORDER finds is implied by
// FASTOD's complete minimal output.
func TestORDERSoundRelativeToFASTOD(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 15; trial++ {
		rel := datagen.RandomStructuredRelation(2+rng.Intn(16), 4, 3, rng.Int63())
		enc := encode(t, rel)
		orderRes, err := DiscoverContext(t.Context(), enc, lattice.Config{Budget: lattice.Budget{MaxNodes: 200000}})
		if err != nil {
			t.Fatal(err)
		}
		fastodRes, err := core.DiscoverContext(t.Context(), enc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cover := canonical.NewCover(fastodRes.ODs)
		if missing, ok := cover.ImpliesAll(orderRes.Canonical); !ok {
			t.Fatalf("trial %d: ORDER found %v which FASTOD's cover does not imply", trial, missing)
		}
	}
}

// TestORDERIncompleteConstants: a constant column is discovered by FASTOD as
// {}: [] -> A but ORDER never reports information that implies it
// (Section 5.3's flight-year example).
func TestORDERIncompleteConstants(t *testing.T) {
	rel, err := relation.FromRows("const", []string{"year", "quarter", "day"}, [][]string{
		{"2012", "1", "5"},
		{"2012", "2", "3"},
		{"2012", "3", "9"},
		{"2012", "4", "1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := encode(t, rel)

	orderRes, err := DiscoverContext(t.Context(), enc, lattice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fastodRes, err := core.DiscoverContext(t.Context(), enc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	constOD := canonical.NewConstancy(bitset.AttrSet(0), 0) // {}: [] -> year

	if !canonical.NewCover(fastodRes.ODs).Implies(constOD) {
		t.Fatal("FASTOD must discover the constant year column")
	}
	if canonical.NewCover(orderRes.Canonical).Implies(constOD) {
		t.Error("ORDER should not imply {}: [] -> year (it discards constants); incompleteness not reproduced")
	}
}

// TestORDERIncompleteOrderCompatibility: month ~ week style ODs (order
// compatible but no FD either way) are missed by ORDER because it only
// reports full ODs X ↦ Y (Example 2 / Section 4.5).
func TestORDERIncompleteOrderCompatibility(t *testing.T) {
	// month = day/30, week = day/7 for a strictly increasing hidden day; the
	// two are order compatible but neither determines the other.
	rows := make([][]string, 0, 60)
	for day := 0; day < 60; day++ {
		rows = append(rows, []string{itoa(day / 30), itoa(day / 7), itoa(day % 5)})
	}
	rel, err := relation.FromRows("calendar", []string{"month", "week", "noise"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	enc := encode(t, rel)

	oc := canonical.NewOrderCompatible(bitset.AttrSet(0), 0, 1) // {}: month ~ week
	if !canonical.MustHold(enc, oc) {
		t.Fatal("test fixture broken: month ~ week should hold")
	}

	fastodRes, err := core.DiscoverContext(t.Context(), enc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !canonical.NewCover(fastodRes.ODs).Implies(oc) {
		t.Error("FASTOD must imply {}: month ~ week")
	}

	orderRes, err := DiscoverContext(t.Context(), enc, lattice.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if canonical.NewCover(orderRes.Canonical).Implies(oc) {
		t.Error("ORDER should miss {}: month ~ week (no full OD holds between them); incompleteness not reproduced")
	}
}

// TestORDERConciseness: Section 5.3 argues that many ODs ORDER considers
// minimal are redundant under the set-based canonical representation. On a
// date-dimension table ORDER's canonical image must contain ODs that are not
// data-minimal (they do not appear in FASTOD's complete minimal set even
// though FASTOD implies them).
func TestORDERConcisenessVsFASTOD(t *testing.T) {
	enc := encode(t, datagen.DateDim(120))
	orderRes, err := DiscoverContext(t.Context(), enc, lattice.Config{Budget: lattice.Budget{MaxNodes: 500000}})
	if err != nil {
		t.Fatal(err)
	}
	fastodRes, err := core.DiscoverContext(t.Context(), enc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	minimal := make(map[canonical.OD]bool, len(fastodRes.ODs))
	for _, od := range fastodRes.ODs {
		minimal[od] = true
	}
	cover := canonical.NewCover(fastodRes.ODs)
	redundant := 0
	for _, od := range orderRes.Canonical {
		if !cover.Implies(od) {
			t.Fatalf("ORDER reported %v which FASTOD does not imply", od)
		}
		if !minimal[od] {
			redundant++
		}
	}
	if len(orderRes.Canonical) == 0 {
		t.Fatal("ORDER should find some ODs on date_dim")
	}
	if redundant == 0 {
		t.Error("expected ORDER's canonical image to contain data-redundant ODs on date_dim")
	}
}

func TestDiscoverBudgets(t *testing.T) {
	enc := encode(t, datagen.FlightLike(50, 8, 7))
	res, err := DiscoverContext(t.Context(), enc, lattice.Config{Budget: lattice.Budget{MaxNodes: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Interrupted {
		t.Error("MaxNodes budget should mark the run as interrupted")
	}
	res, err = DiscoverContext(t.Context(), enc, lattice.Config{Budget: lattice.Budget{Timeout: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Interrupted {
		t.Error("Timeout budget should mark the run as interrupted")
	}
}

// TestDiscoverMaxLevel: MaxLevel bounds the list length. The shortest list
// has two attributes, so MaxLevel 1 leaves nothing to visit, which is a
// normal completion; MaxLevel 2 visits every ordered pair and extends none.
func TestDiscoverMaxLevel(t *testing.T) {
	enc := encode(t, datagen.FlightLike(200, 5, 3))
	n := enc.NumCols()

	var events int
	res, err := DiscoverContext(t.Context(), enc, lattice.Config{MaxLevel: 1, Progress: func(lattice.ProgressEvent) { events++ }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesVisited != 0 || res.Stats.MaxLevelReached != 0 || res.Stats.Interrupted {
		t.Errorf("MaxLevel 1: stats %+v, want no node visited and not interrupted", res.Stats)
	}
	if len(res.ODs) != 0 || len(res.Canonical) != 0 || events != 0 {
		t.Errorf("MaxLevel 1: %d list ODs, %d canonical ODs, %d progress events; want none", len(res.ODs), len(res.Canonical), events)
	}

	res, err = DiscoverContext(t.Context(), enc, lattice.Config{MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NodesVisited != n*(n-1) || res.Stats.MaxLevelReached != 2 || res.Stats.Interrupted {
		t.Errorf("MaxLevel 2: stats %+v, want %d nodes at level 2, not interrupted", res.Stats, n*(n-1))
	}
	if len(res.ODs) == 0 {
		t.Error("MaxLevel 2: expected list ODs between attribute pairs")
	}
	for _, od := range res.ODs {
		if len(od.Left)+len(od.Right) != 2 {
			t.Errorf("MaxLevel 2: %v spans more than two attributes", od)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
