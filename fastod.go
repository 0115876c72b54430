// Package fastod is the public API of this repository: a Go implementation
// of FASTOD, the set-based order dependency (OD) discovery algorithm of
// Szlichta, Godfrey, Golab, Kargar and Srivastava, "Effective and Complete
// Discovery of Order Dependencies via Set-based Axiomatization" (VLDB 2017).
//
// An order dependency X ↦ Y states that sorting a table by the attribute list
// X also sorts it by Y. The paper shows that every list-based OD can be
// mapped to an equivalent set of canonical ODs of two shapes — constancy ODs
// X: [] ↦ A and order-compatibility ODs X: A ~ B — and that the complete,
// minimal set of canonical ODs holding on a table can be discovered by a
// level-wise traversal of the set-containment lattice.
//
// Typical use — every algorithm runs through the unified Run surface, which
// honors context cancellation and resource budgets and reports partial
// results when interrupted:
//
//	ds, err := fastod.LoadCSVFile("employees.csv")
//	if err != nil { ... }
//	rep, err := ds.Run(ctx, fastod.Request{
//	    Algorithm:  fastod.AlgorithmFASTOD,
//	    RunOptions: fastod.RunOptions{Budget: fastod.DefaultBudget()},
//	})
//	if err != nil { ... }
//	if rep.Interrupted { ... } // partial results: budget or ctx fired
//	fmt.Println("discovered", rep.Counts, "canonical ODs")
//	for _, dep := range rep.Dependencies(ds.ColumnNames()) {
//	    fmt.Println(dep)
//	}
//
// Report.Found, Report.Counts and Report.Dependencies read the same way for
// every algorithm; the typed payload (rep.FASTOD here) holds the rest.
//
// The package also exposes the paper's comparison baselines (TANE for
// functional dependencies, ORDER for list-based OD discovery) — selected via
// Request.Algorithm — a brute-force reference discoverer used for validation,
// violation witnesses for data cleaning, and the Theorem-5 mapping between
// list-based and set-based ODs. Run and RunWithProgress are the only
// discovery entry points.
package fastod

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/listod"
	"repro/internal/lru"
	"repro/internal/relation"
)

// Re-exported core types. The algorithm packages live under internal/; these
// aliases form the stable public surface.
type (
	// OD is a set-based canonical order dependency: either a constancy OD
	// "X: [] ↦ A" or an order-compatibility OD "X: A ~ B".
	OD = canonical.OD
	// Kind distinguishes constancy from order-compatibility ODs.
	Kind = canonical.Kind
	// Count tallies a set of ODs the way the paper reports results.
	Count = canonical.Count
	// Cover supports implication reasoning over a set of canonical ODs.
	Cover = canonical.Cover
	// Violation is a witness pair of rows explaining why an OD fails.
	Violation = canonical.Violation
	// Result is the outcome of a FASTOD discovery run.
	Result = core.Result
	// LevelStat reports per-lattice-level statistics (Figure 7).
	LevelStat = core.LevelStat
	// Stats aggregates work counters of a discovery run.
	Stats = core.Stats
	// Spec is a list-based order specification (a SQL ORDER BY column list).
	Spec = listod.Spec
	// ListOD is a list-based order dependency Left ↦ Right.
	ListOD = listod.OD
	// PartitionStore is a bounded, concurrency-safe cache of stripped
	// partitions keyed by attribute set, shared between discovery runs over
	// the same relation. Dataset.EnablePartitionCache attaches one and
	// returns it for inspection.
	PartitionStore = lattice.PartitionStore
	// StoreStats is a snapshot of a PartitionStore's accounting.
	StoreStats = lattice.StoreStats
)

// Kinds of canonical ODs.
const (
	// Constancy marks ODs of the form X: [] ↦ A (the FD fragment).
	Constancy = canonical.Constancy
	// OrderCompatible marks ODs of the form X: A ~ B.
	OrderCompatible = canonical.OrderCompatible
)

// NewConstancyOD builds the canonical OD ctx: [] ↦ a over attribute indexes.
func NewConstancyOD(ctx []int, a int) OD {
	return canonical.NewConstancy(attrSet(ctx), a)
}

// NewOrderCompatibleOD builds the canonical OD ctx: a ~ b over attribute
// indexes.
func NewOrderCompatibleOD(ctx []int, a, b int) OD {
	return canonical.NewOrderCompatible(attrSet(ctx), a, b)
}

// NewCover builds an implication cover from a set of canonical ODs, e.g. a
// discovery result, so callers can ask whether other ODs follow from it.
func NewCover(ods []OD) *Cover { return canonical.NewCover(ods) }

// MinimizeODs removes ODs implied by the remaining ones (via the
// augmentation and propagation axioms) and returns the reduced, sorted set.
func MinimizeODs(ods []OD) []OD { return canonical.Minimize(ods) }

// Dataset is a loaded relation instance ready for discovery: the raw typed
// table plus its order-preserving integer encoding, and optionally a shared
// partition cache (see EnablePartitionCache).
type Dataset struct {
	rel   *relation.Relation
	enc   *relation.Encoded
	parts *lattice.PartitionStore
	// version is this dataset's version stamp, set once at construction;
	// see Version.
	version uint64
	// specs caches per-OrderSpec re-encodings of this dataset in plain LRU
	// order, keyed by canonical spec fingerprint; see ordering.go. They share
	// parts, so correctness never depends on the cache, only the cost of a
	// repeat request does.
	specs *lru.Cache[string, *relation.Encoded]
}

// datasetVersions issues version stamps. One process-global counter (rather
// than a per-dataset one) makes stamps unique across every dataset and view
// a process ever creates, so a cache key built from a stamp can never collide
// with a different dataset that happens to share a name — e.g. after a future
// delete-and-reupload path.
var datasetVersions atomic.Uint64

// Version returns the dataset's version stamp. Stamps are issued from one
// process-global monotonic counter: every dataset (and every Project/HeadRows
// view, which is a distinct relation instance) gets a fresh stamp at
// construction, and a dataset never changes after it. A cache keyed by
// (version, request) therefore never serves one dataset's report for
// another, even one that reuses its name — the report cache's dataset half
// (the request half is Request.Fingerprint).
func (d *Dataset) Version() uint64 { return d.version }

// LoadCSVFile reads a CSV file with a header row, sniffs column types
// (integers, floats, dates, strings) and returns a dataset.
func LoadCSVFile(path string) (*Dataset, error) {
	rel, err := relation.ReadCSVFile(path)
	if err != nil {
		return nil, err
	}
	return newDataset(rel)
}

// LoadCSV reads CSV data from a reader with a header row. The name is used
// only in diagnostics.
func LoadCSV(name string, src io.Reader) (*Dataset, error) {
	rel, err := relation.ReadCSV(name, src)
	if err != nil {
		return nil, err
	}
	return newDataset(rel)
}

// FromRows builds a dataset from a header and row-major string data, sniffing
// column types.
func FromRows(name string, header []string, rows [][]string) (*Dataset, error) {
	rel, err := relation.FromRows(name, header, rows)
	if err != nil {
		return nil, err
	}
	return newDataset(rel)
}

func newDataset(rel *relation.Relation) (*Dataset, error) {
	enc, err := relation.Encode(rel)
	if err != nil {
		return nil, err
	}
	return newView(rel, enc), nil
}

// newView builds a dataset over rel and its default encoding, with a fresh
// version stamp and an empty spec cache.
func newView(rel *relation.Relation, enc *relation.Encoded) *Dataset {
	return &Dataset{
		rel:     rel,
		enc:     enc,
		version: datasetVersions.Add(1),
		specs:   lru.New[string, *relation.Encoded](defaultSpecEncodingBytes),
	}
}

// Name returns the dataset's name (file path or constructor-supplied name).
func (d *Dataset) Name() string { return d.rel.Name }

// NumRows returns the number of tuples.
func (d *Dataset) NumRows() int { return d.enc.NumRows() }

// NumCols returns the number of attributes.
func (d *Dataset) NumCols() int { return d.enc.NumCols() }

// ColumnNames returns the attribute names in schema order.
func (d *Dataset) ColumnNames() []string {
	return append([]string(nil), d.enc.ColumnNames...)
}

// ColumnIndex returns the index of the named attribute, or -1 if absent.
func (d *Dataset) ColumnIndex(name string) int { return d.enc.ColumnIndex(name) }

// Project returns a dataset restricted to the first k attributes, and
// HeadRows one restricted to the first n tuples. Both are cheap views, for
// running discovery or a check on the leading columns or rows of a table too
// wide or too long to profile whole. A view narrows the raw relation along
// with its encoding, sharing the parent's dictionaries and row ids, so
// whatever reads raw values — spec re-encodings, WithSwapViolations — sees
// the view's rows and columns only.
//
// A view is a distinct relation instance, so it deliberately does NOT
// inherit the parent's partition cache: a PartitionStore binds to one
// default encoding and its re-encodings and fails loudly on any other (see
// EnablePartitionCache), and the parent's partitions would be wrong for the
// view anyway. Call EnablePartitionCache on the view itself; its spec runs
// then share that store, with signatures against the view's cardinalities.
func (d *Dataset) Project(k int) *Dataset {
	enc := d.enc.ProjectColumns(k)
	k = enc.NumCols()
	return newView(&relation.Relation{Name: d.rel.Name, Columns: d.rel.Columns[:k:k]}, enc)
}

// HeadRows returns a dataset restricted to the first n tuples. Like Project,
// the view does not inherit the parent's partition cache (a store binds to
// one default encoding and its re-encodings); enable one on the view.
func (d *Dataset) HeadRows(n int) *Dataset {
	return newView(d.rel.Head(n), d.enc.HeadRows(n))
}

// EnablePartitionCache attaches a bounded partition store to the dataset:
// every subsequent discovery run on it — FASTOD (pruned or un-pruned), TANE,
// approximate and bidirectional — reuses the stripped partitions earlier
// runs computed instead of re-deriving them, which is what repeated
// profiling workloads (e.g. discovery behind the advisor, or comparing
// algorithms on one table) spend most of their time on. maxCost bounds the
// cache in bytes of retained class data (<= 0 selects a 16 MiB default);
// beyond it partitions are evicted deepest-attribute-set-level first (then
// least recently used within a level), because shallow partitions are
// exponentially more reusable than deep ones. Runs under a non-default
// Request.OrderSpecs share this one store, whether the spec was encoded
// before or after this call: a partition records only which rows agree, so
// it is filed under its attribute set plus its encoding's equality
// signature, and a spec that merges no values reads the default spec's
// partitions. The first call wins: once the dataset carries a store, later
// calls return it unchanged and their maxCost is ignored. The store is
// returned so callers can inspect its Stats. Discovery output is identical
// with and without the cache.
func (d *Dataset) EnablePartitionCache(maxCost int) *PartitionStore {
	if d.parts == nil {
		d.parts = lattice.NewPartitionStore(maxCost)
	}
	return d.parts
}

// ReferenceDiscover runs the brute-force reference discoverer (exponential in
// attributes, quadratic in rows). It exists to validate the fast algorithm
// and is limited to 20 attributes.
func (d *Dataset) ReferenceDiscover() ([]OD, error) {
	return canonical.ReferenceDiscover(d.enc)
}

// CheckCanonicalOD reports whether a single canonical OD holds on the dataset.
func (d *Dataset) CheckCanonicalOD(od OD) (bool, error) {
	return canonical.Holds(d.enc, od)
}

// FindViolation returns a witness pair of rows for a violated canonical OD.
// The boolean reports whether a violation exists.
func (d *Dataset) FindViolation(od OD) (Violation, bool, error) {
	return canonical.FindViolation(d.enc, od)
}

// CheckListOD reports whether the list-based OD "left ↦ right" holds, where
// both sides are given as ordered lists of column names (as in SQL ORDER BY).
func (d *Dataset) CheckListOD(left, right []string) (bool, error) {
	l, err := d.spec(left)
	if err != nil {
		return false, err
	}
	r, err := d.spec(right)
	if err != nil {
		return false, err
	}
	return listod.Holds(d.enc, l, r), nil
}

// CheckOrderCompatible reports whether the two order specifications are order
// compatible (X ~ Y), i.e. XY ↔ YX.
func (d *Dataset) CheckOrderCompatible(left, right []string) (bool, error) {
	l, err := d.spec(left)
	if err != nil {
		return false, err
	}
	r, err := d.spec(right)
	if err != nil {
		return false, err
	}
	return listod.OrderCompatible(d.enc, l, r), nil
}

// MapListOD maps the list-based OD "left ↦ right" (column names) into its
// equivalent set of canonical ODs per Theorem 5, trivial ODs removed.
func (d *Dataset) MapListOD(left, right []string) ([]OD, error) {
	l, err := d.spec(left)
	if err != nil {
		return nil, err
	}
	r, err := d.spec(right)
	if err != nil {
		return nil, err
	}
	return canonical.MapListODNonTrivial(l, r), nil
}

// spec resolves column names to an order specification.
func (d *Dataset) spec(names []string) (listod.Spec, error) {
	out := make(listod.Spec, 0, len(names))
	for _, n := range names {
		idx := d.enc.ColumnIndex(n)
		if idx < 0 {
			return nil, fmt.Errorf("fastod: unknown column %q (have %v)", n, d.enc.ColumnNames)
		}
		out = append(out, idx)
	}
	return out, nil
}

// attrSet builds a bitset attribute set from attribute indexes.
func attrSet(attrs []int) bitset.AttrSet {
	return bitset.NewAttrSet(attrs...)
}
