package fastod

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/odparse"
	"repro/internal/relation"
)

// This file is the public face of first-class ordering semantics: the
// AttrOrder entries of Request.OrderSpecs, their canonicalization and
// validation, the textual spec parser shared with the CLIs, and the
// dataset's bounded cache of per-spec re-encodings. The flow is one-way:
// named AttrOrders are canonicalized, fingerprinted, resolved to the
// dataset's columns, and encoded away column by column — every discovery
// algorithm runs on the resulting plain ranks. Ranks change, the partitions
// do not: every run shares the dataset's one partition store, filed by
// equality signature (see SpecEncoded).

// OrderDirection is the per-attribute sort direction of an order spec, and
// the direction of a DirectedColumn in CheckBidirListOD.
type OrderDirection = relation.Direction

// NullOrder places NULLs relative to every non-null value, independent of
// the direction.
type NullOrder = relation.NullOrder

// Collation chooses the comparator non-null values are ranked under.
type Collation = relation.Collation

// The order-spec enums, re-exported from internal/relation. Zero values are
// the defaults: ascending, NULLS FIRST, type-driven comparison.
const (
	OrderAsc         = relation.Asc
	OrderDesc        = relation.Desc
	NullsFirst       = relation.NullsFirst
	NullsLast        = relation.NullsLast
	CollateDefault   = relation.CollateDefault
	CollateLex       = relation.CollateLexicographic
	CollateNumeric   = relation.CollateNumeric
	CollateDate      = relation.CollateDate
	CollateCaseInsen = relation.CollateCaseInsensitive
	CollateRank      = relation.CollateRank
)

// ParseOrderDirection, ParseNullOrder and ParseCollation parse the wire/CLI
// spellings of the enums (case-insensitive; empty string = default).
var (
	ParseOrderDirection = relation.ParseDirection
	ParseNullOrder      = relation.ParseNullOrder
	ParseCollation      = relation.ParseCollation
)

// AttrOrder overrides the ordering semantics of one named column: sort
// direction, NULL placement and collation (with a value list for
// CollateRank). The zero override (just a column name) is a no-op: it
// selects the default order the column would have anyway, and Canonical
// erases it.
type AttrOrder struct {
	// Column names the attribute the override applies to.
	Column string
	// Direction is the sort direction (default ascending).
	Direction OrderDirection
	// Nulls places NULLs independent of Direction (default NULLS FIRST).
	Nulls NullOrder
	// Collation chooses the comparator (default: the column's sniffed or
	// declared type).
	Collation Collation
	// Ranks is the user-defined value order of CollateRank, lowest first.
	Ranks []string
}

// columnOrder compiles the override into the relation-level ColumnOrder.
func (o AttrOrder) columnOrder() relation.ColumnOrder {
	return relation.ColumnOrder{
		Direction: o.Direction,
		Nulls:     o.Nulls,
		Collation: o.Collation,
		Ranks:     o.Ranks,
	}
}

// isDefault reports whether the override changes nothing.
func (o AttrOrder) isDefault() bool { return o.columnOrder().IsDefault() }

// ParseOrderSpecs parses a comma-separated textual order spec — the grammar
// of the -order-spec CLI flag and of per-attribute modifiers in OD
// expressions, e.g.
//
//	salary desc nulls last, name collate ci, grade desc
//
// Keywords are case-insensitive; every modifier is optional and a bare
// column name is a (canonically erased) no-op. The rank collation has no
// textual form — supply AttrOrder.Ranks programmatically or over JSON.
func ParseOrderSpecs(input string) ([]AttrOrder, error) {
	parsed, err := odparse.ParseOrderSpec(input)
	if err != nil {
		return nil, err
	}
	return attrOrders(parsed), nil
}

// attrOrders converts parsed per-column orders — an order-spec list or a
// dependency expression's attribute modifiers — into AttrOrders.
func attrOrders(parsed []odparse.NamedOrder) []AttrOrder {
	out := make([]AttrOrder, len(parsed))
	for i, no := range parsed {
		out[i] = AttrOrder{
			Column:    no.Name,
			Direction: no.Order.Direction,
			Nulls:     no.Order.Nulls,
			Collation: no.Order.Collation,
			Ranks:     no.Order.Ranks,
		}
	}
	return out
}

// validateAttrOrders checks a Request.OrderSpecs list without a dataset:
// non-empty unique column names and per-entry ColumnOrder validity. (Whether
// the columns exist is dataset-aware and checked by ValidateRequest.)
func validateAttrOrders(orders []AttrOrder) error {
	seen := make(map[string]bool, len(orders))
	for i, o := range orders {
		if o.Column == "" {
			return fmt.Errorf("OrderSpecs[%d] has an empty column name", i)
		}
		if seen[o.Column] {
			return fmt.Errorf("OrderSpecs names column %q twice", o.Column)
		}
		seen[o.Column] = true
		if err := o.columnOrder().Validate(); err != nil {
			return fmt.Errorf("OrderSpecs[%d] (column %q): %v", i, o.Column, err)
		}
	}
	return nil
}

// canonicalAttrOrders returns the canonical form of an OrderSpecs list:
// fully-default entries dropped (naming a column without overriding anything
// is a no-op), the rest sorted by column name (entries configure their
// columns independently, so listing order is presentation), nil when nothing
// survives. Two lists canonicalize equal exactly when they select the same
// per-column orders, which is what Fingerprint serializes.
func canonicalAttrOrders(orders []AttrOrder) []AttrOrder {
	var out []AttrOrder
	for _, o := range orders {
		if o.isDefault() {
			continue
		}
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Column < out[j].Column })
	return out
}

// orderSpecKey renders canonical AttrOrders, each entry as before, then
// `"col":direction,nulls,collation` and its ranks, then after: the one
// rendering behind spec-cache keys (after ";") and request fingerprints
// (before ";ord="). Column names and ranks are quoted, so distinct specs
// never render alike.
func orderSpecKey(orders []AttrOrder, before, after string) string {
	var b strings.Builder
	for _, o := range orders {
		fmt.Fprintf(&b, "%s%s:%d,%d,%d", before, strconv.Quote(o.Column), o.Direction, o.Nulls, o.Collation)
		for _, v := range o.Ranks {
			b.WriteByte(',')
			b.WriteString(strconv.Quote(v))
		}
		b.WriteString(after)
	}
	return b.String()
}

// defaultSpecEncodingBytes bounds the per-dataset cache of spec re-encodings:
// enough for a handful of specs on mid-size relations, small enough that a
// spec-per-request adversary cannot hold the heap hostage (entries beyond the
// bound evict LRU; oversized single encodings are served but never retained).
// A re-encoding is charged the rank arrays it owns, rows × 4 bytes for each
// column its spec names; its other columns are the default encoding's.
// Partitions are not charged here: every re-encoding reads and fills the
// dataset's one partition store.
const defaultSpecEncodingBytes = 64 << 20

// SpecEncoded returns the dataset re-encoded under the given (non-canonical
// is fine) order overrides, from the cache when warm: the encoding Run uses
// for Request.OrderSpecs, and spec-aware single-statement checks
// (CheckStatement) too. Fully-default overrides return the dataset's own
// encoding. Only the columns the overrides name are re-ranked; every other
// column keeps the default encoding's ranks and cardinality, shared with it.
func (d *Dataset) SpecEncoded(orders []AttrOrder) (*relation.Encoded, error) {
	canon := canonicalAttrOrders(orders)
	if len(canon) == 0 {
		return d.enc, nil
	}
	if err := validateAttrOrders(canon); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	key := orderSpecKey(canon, "", ";")
	if enc, ok := d.specs.Get(key); ok {
		return enc, nil
	}
	type named struct {
		col   int
		order relation.ColumnOrder
	}
	cols := make([]named, len(canon))
	for i, o := range canon {
		if cols[i].col = d.enc.ColumnIndex(o.Column); cols[i].col < 0 {
			return nil, fmt.Errorf("%w: OrderSpecs names unknown column %q", ErrInvalidRequest, o.Column)
		}
		cols[i].order = o.columnOrder()
	}
	slices.SortFunc(cols, func(a, b named) int { return a.col - b.col })
	// Encode outside every lock, so that concurrent runs under different
	// specs do not serialize. Raw-equal values share a rank under every
	// spec, so a column's classes change exactly when its cardinality does;
	// only the collation decides which values merge, never the direction or
	// NULL placement. The equality signature lists those columns in index
	// order.
	enc := *d.enc
	enc.Values, enc.Cardinality, enc.Base = slices.Clone(enc.Values), slices.Clone(enc.Cardinality), d.enc
	var eq strings.Builder
	for _, c := range cols {
		ranks, card, err := relation.EncodeColumn(d.rel.Columns[c.col], c.order)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
		}
		enc.Values[c.col], enc.Cardinality[c.col] = ranks, card
		if card != d.enc.Cardinality[c.col] {
			fmt.Fprintf(&eq, "%d:%d;", c.col, c.order.Collation)
		}
	}
	enc.Equality = eq.String()
	// A run that lost the encode race takes the resident entry, so every
	// caller shares one instance. An encoding that alone busts the bound is
	// served uncached; the caller holds the only reference.
	resident, _ := d.specs.Add(key, &enc, len(cols)*enc.NumRows()*4, 0)
	return resident, nil
}

// SpecEncodingCacheStats reports the spec re-encoding cache's accounting:
// resident encodings and their byte cost. For observability endpoints and
// tests; the bound itself is fixed at 64 MiB per dataset.
func (d *Dataset) SpecEncodingCacheStats() (entries int, bytes int64) {
	st := d.specs.Stats()
	return st.Entries, int64(st.Cost)
}

// ColumnTypes returns the sniffed (or declared) type name of every column in
// schema order — the vocabulary of the default collation, served by the
// server's schema endpoint so clients can decide which collation override to
// request.
func (d *Dataset) ColumnTypes() []string {
	out := make([]string, d.enc.NumCols())
	for i := range out {
		out[i] = d.rel.Columns[i].Type.String()
	}
	return out
}
