package relation

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// This file makes ordering semantics a first-class, per-attribute input of
// the rank encoding instead of an encode-time constant. An OrderSpec chooses,
// per column, the sort direction, the NULL placement and the collation under
// which raw values are compared; EncodeSpec compiles all of it away into
// plain dense ranks, so the discovery algorithms never see the spec — they
// keep operating on integers whose order IS the requested order.
//
// The contract, spec-aware form of the Section 4.6 encoding invariant:
//
//	rank(a) == rank(b)  ⇔  a and b are equal under the column's collation
//	rank(a) <  rank(b)  ⇔  a sorts strictly before b under the column order
//
// Compare is the independent reference implementation of that order over raw
// values; FuzzEncodeSpec differences the two against each other.

// Direction is the per-attribute sort direction of an OrderSpec. The zero
// value is ascending.
type Direction uint8

// Sort directions.
const (
	// Asc sorts non-null values ascending (the default).
	Asc Direction = iota
	// Desc sorts non-null values descending. NULL placement is NOT affected:
	// it is controlled independently by NullOrder, as in SQL.
	Desc
)

// String renders the direction in the spec grammar ("asc"/"desc").
func (d Direction) String() string {
	switch d {
	case Asc:
		return "asc"
	case Desc:
		return "desc"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// ParseDirection parses a direction keyword, case-insensitively. The empty
// string selects the default (ascending).
func ParseDirection(s string) (Direction, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "asc", "ascending":
		return Asc, nil
	case "desc", "descending":
		return Desc, nil
	default:
		return 0, fmt.Errorf("relation: unknown direction %q (want \"asc\" or \"desc\")", s)
	}
}

// NullOrder places NULLs (empty-string values) relative to every non-null
// value, independent of Direction. The zero value is NULLS FIRST, matching
// the historical behavior of Encode.
type NullOrder uint8

// NULL placements.
const (
	// NullsFirst sorts NULLs before every non-null value (the default).
	NullsFirst NullOrder = iota
	// NullsLast sorts NULLs after every non-null value.
	NullsLast
)

// String renders the placement in the spec grammar ("first"/"last").
func (n NullOrder) String() string {
	switch n {
	case NullsFirst:
		return "first"
	case NullsLast:
		return "last"
	default:
		return fmt.Sprintf("NullOrder(%d)", int(n))
	}
}

// ParseNullOrder parses a NULL placement keyword, case-insensitively. The
// empty string selects the default (NULLS FIRST).
func ParseNullOrder(s string) (NullOrder, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "first":
		return NullsFirst, nil
	case "last":
		return NullsLast, nil
	default:
		return 0, fmt.Errorf("relation: unknown null placement %q (want \"first\" or \"last\")", s)
	}
}

// Collation chooses the comparator (and therefore the equivalence classes)
// non-null values of one column are ranked under. The zero value defers to
// the column's sniffed or declared Type, which is the historical behavior.
type Collation uint8

// Collations.
const (
	// CollateDefault compares by the column's Type (int/float/date/string),
	// breaking numeric and date ties by the raw string so distinct raw values
	// always get distinct ranks. Integers compare exactly as int64, floats as
	// float64. Unparseable values are an encoding error, exactly as before
	// OrderSpec existed.
	CollateDefault Collation = iota
	// CollateLexicographic compares raw strings bytewise, whatever the
	// column's type.
	CollateLexicographic
	// CollateNumeric parses values as floats. It merges values that parse
	// to one float64 into one equivalence class: "1" and "1.0", but also
	// integers past 2^53 that round to the same float. Values that do not
	// parse (or parse to NaN) sort after every number, ordered bytewise
	// among themselves. Total on any input — never an encoding error.
	CollateNumeric
	// CollateDate parses values as dates (the same layouts the sniffer
	// accepts). Equal instants are EQUAL; unparseable values sort after
	// every date, ordered bytewise among themselves.
	CollateDate
	// CollateCaseInsensitive compares strings.ToLower of the raw values;
	// case variants of one word merge into one equivalence class.
	CollateCaseInsensitive
	// CollateRank orders values by their position in the user-supplied
	// ColumnOrder.Ranks list (a user-defined order, e.g. Low < Medium <
	// High). Values absent from the list sort after every listed value,
	// ordered bytewise among themselves.
	CollateRank
)

// String renders the collation in the spec grammar.
func (c Collation) String() string {
	switch c {
	case CollateDefault:
		return "default"
	case CollateLexicographic:
		return "lexicographic"
	case CollateNumeric:
		return "numeric"
	case CollateDate:
		return "date"
	case CollateCaseInsensitive:
		return "case-insensitive"
	case CollateRank:
		return "rank"
	default:
		return fmt.Sprintf("Collation(%d)", int(c))
	}
}

// ParseCollation parses a collation name, case-insensitively, accepting the
// short aliases "lex" and "ci". The empty string selects the default.
func ParseCollation(s string) (Collation, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "default":
		return CollateDefault, nil
	case "lex", "lexicographic":
		return CollateLexicographic, nil
	case "numeric":
		return CollateNumeric, nil
	case "date":
		return CollateDate, nil
	case "ci", "case-insensitive":
		return CollateCaseInsensitive, nil
	case "rank":
		return CollateRank, nil
	default:
		return 0, fmt.Errorf("relation: unknown collation %q (want default, lexicographic, numeric, date, case-insensitive or rank)", s)
	}
}

// ColumnOrder is the ordering specification of one column: direction, NULL
// placement and collation. The zero value is the historical default order
// (ascending, NULLS FIRST, type-driven comparison).
type ColumnOrder struct {
	Direction Direction
	Nulls     NullOrder
	Collation Collation
	// Ranks is the user-defined value order of CollateRank (first entry
	// sorts lowest); it must be empty for every other collation.
	Ranks []string
}

// IsDefault reports whether the order is the zero default, i.e. encoding
// under it is identical to plain Encode.
func (co ColumnOrder) IsDefault() bool {
	return co.Direction == Asc && co.Nulls == NullsFirst &&
		co.Collation == CollateDefault && len(co.Ranks) == 0
}

// Validate checks the order is internally consistent: enums in range, and a
// rank list present exactly when CollateRank asks for one (non-empty, no
// duplicate values — a duplicated value would make its rank ambiguous).
func (co ColumnOrder) Validate() error {
	if co.Direction != Asc && co.Direction != Desc {
		return fmt.Errorf("relation: invalid direction %d", co.Direction)
	}
	if co.Nulls != NullsFirst && co.Nulls != NullsLast {
		return fmt.Errorf("relation: invalid null placement %d", co.Nulls)
	}
	switch co.Collation {
	case CollateDefault, CollateLexicographic, CollateNumeric, CollateDate, CollateCaseInsensitive:
		if len(co.Ranks) > 0 {
			return fmt.Errorf("relation: Ranks set with collation %q (only \"rank\" reads them)", co.Collation)
		}
	case CollateRank:
		if len(co.Ranks) == 0 {
			return fmt.Errorf("relation: rank collation requires a non-empty rank list")
		}
		seen := make(map[string]bool, len(co.Ranks))
		for _, v := range co.Ranks {
			if v == "" {
				return fmt.Errorf("relation: rank list contains an empty value (NULL placement is controlled by NullOrder)")
			}
			if seen[v] {
				return fmt.Errorf("relation: rank list repeats value %q", v)
			}
			seen[v] = true
		}
	default:
		return fmt.Errorf("relation: invalid collation %d", co.Collation)
	}
	return nil
}

// String renders the order in the spec grammar, e.g. "desc nulls last
// collate numeric". The default collation is omitted; rank lists are quoted.
func (co ColumnOrder) String() string {
	var b strings.Builder
	b.WriteString(co.Direction.String())
	b.WriteString(" nulls ")
	b.WriteString(co.Nulls.String())
	if co.Collation != CollateDefault {
		b.WriteString(" collate ")
		b.WriteString(co.Collation.String())
	}
	for i, v := range co.Ranks {
		if i == 0 {
			b.WriteString(" (")
		} else {
			b.WriteString(" < ")
		}
		b.WriteString(strconv.Quote(v))
	}
	if len(co.Ranks) > 0 {
		b.WriteString(")")
	}
	return b.String()
}

// OrderSpec is a per-column ordering specification for a whole relation,
// positional with its columns. nil means "every column default"; otherwise
// the length must equal the relation's column count.
type OrderSpec []ColumnOrder

// EncodeSpec converts a raw relation into its rank-encoded form under the
// given ordering spec: per column, distinct values are ordered by
// Compare(spec[col], col.Type, ·, ·) and replaced by their dense 0-based
// rank, with values equal under the collation sharing one rank. A nil spec
// is the all-default spec, making EncodeSpec(r, nil) identical to Encode(r).
// Columns are encoded on up to GOMAXPROCS goroutines; when several fail, the
// error is the lowest-index column's, as if they ran in order.
func EncodeSpec(r *Relation, spec OrderSpec) (*Encoded, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if spec != nil && len(spec) != r.NumCols() {
		return nil, fmt.Errorf("relation: order spec has %d entries, relation has %d columns", len(spec), r.NumCols())
	}
	enc := &Encoded{
		Name:        r.Name,
		ColumnNames: r.ColumnNames(),
		Values:      make([][]int32, r.NumCols()),
		Cardinality: make([]int, r.NumCols()),
		rows:        r.NumRows(),
	}
	err := parallel(r.NumCols(), func(ci int) error {
		var co ColumnOrder
		if spec != nil {
			co = spec[ci]
		}
		var err error
		enc.Values[ci], enc.Cardinality[ci], err = EncodeColumn(r.Columns[ci], co)
		return err
	})
	if err != nil {
		return nil, err
	}
	return enc, nil
}

// EncodeColumn rank-encodes one column under a column order from its
// dictionary, returning the column's ranks and cardinality: the per-column
// step of EncodeSpec, for a caller that re-encodes some columns only. An
// invalid order, or a value that contradicts the column's type under
// CollateDefault, is an error naming the column. One pass over the rows
// marks the dictionary entries they use; a row prefix (Head, or a HeadRows
// dataset's raw view) may leave some unused, and those get no key and no
// rank. Each used value is keyed once, in dictionary order, and the keys
// themselves are sorted. A key holds no pointer: it carries the value's
// dictionary id, and a string comparand is read through that id from the
// dictionary, or from lowered copies under CollateCaseInsensitive, the one
// collation that makes any. Runs of equal keys share one dense rank; only
// the merging collations (numeric, date, case-insensitive, rank) produce
// them. A last pass maps each row's id to its rank. With d distinct values
// a column costs O(rows + d log d).
func EncodeColumn(col Column, co ColumnOrder) ([]int32, int, error) {
	if err := co.Validate(); err != nil {
		return nil, 0, fmt.Errorf("relation: column %q: %w", col.Name, err)
	}
	rank := make([]int32, len(col.Dict))
	for _, id := range col.IDs {
		rank[id] = 1
	}
	o := newKeyOrder(co, col)
	keys := make([]sortKey, 0, len(col.Dict))
	for id, used := range rank {
		if used == 0 {
			continue
		}
		k, err := o.key(int32(id))
		if err != nil {
			return nil, 0, fmt.Errorf("relation: column %q: %w", col.Name, err)
		}
		keys = append(keys, k)
	}
	slices.SortFunc(keys, o.compare)
	next := int32(0)
	for i, k := range keys {
		if i > 0 && o.compare(keys[i-1], k) != 0 {
			next++
		}
		rank[k.id] = next
	}
	out := make([]int32, len(col.IDs))
	for i, id := range col.IDs {
		out[i] = rank[id]
	}
	card := 0
	if len(keys) > 0 {
		card = int(next) + 1
	}
	return out, card, nil
}

// sortKey is the comparison key of one value of a column under a column
// order. It holds no pointer, so a column's keys are never scanned by the
// garbage collector. Keys of one column are totally ordered by
// keyOrder.compare; two keys compare equal exactly when the raw values are
// equal under the collation.
type sortKey struct {
	// num is the exact comparand of a bucket-0 value of a numeric-like
	// order: the integer, the date's unix time, the rank-list index, or
	// floatKey of the float.
	num int64
	// id is the value's dictionary id, through which its string comparand
	// is read.
	id int32
	// bucket separates a collation's primary values (parsed numbers and
	// dates, listed ranks: bucket 0) from its fallback values (bucket 1),
	// which sort after every primary value.
	bucket uint8
	null   bool
}

// floatKey maps a float64 other than NaN to an int64 of the same order,
// folding −0 into +0: the sign bit makes a negative float's bits a negative
// int64, and flipping its other bits reverses their magnitude order.
func floatKey(f float64) int64 {
	if f == 0 {
		f = 0 // −0 == 0, so this turns −0 into +0
	}
	b := int64(math.Float64bits(f))
	if b < 0 {
		b ^= math.MaxInt64
	}
	return b
}

// keyOrder builds and compares the sort keys of one column under one
// column order. numeric says bucket-0 keys compare by num first, and merge
// that equal nums are equal values (the merging collations) rather than a
// tie broken by the raw string. Every other comparison reads str, the
// column's dictionary or, under CollateCaseInsensitive, its lowered copies.
type keyOrder struct {
	co             ColumnOrder
	typ            Type
	dict           []string
	str            []string
	numeric, merge bool
	ranks          map[string]int
}

func newKeyOrder(co ColumnOrder, col Column) *keyOrder {
	o := &keyOrder{co: co, typ: col.Type, dict: col.Dict, str: col.Dict}
	switch co.Collation {
	case CollateCaseInsensitive:
		o.str = make([]string, len(col.Dict))
	case CollateNumeric, CollateDate:
		o.numeric, o.merge = true, true
	case CollateRank:
		o.numeric, o.merge = true, true
		o.ranks = make(map[string]int, len(co.Ranks))
		for i, v := range co.Ranks {
			o.ranks[v] = i
		}
	case CollateDefault:
		o.numeric = col.Type == TypeInt || col.Type == TypeFloat || col.Type == TypeDate
	}
	return o
}

// key builds value id's key; under CollateCaseInsensitive it also records
// the value's lowered copy.
func (o *keyOrder) key(id int32) (sortKey, error) {
	raw := o.dict[id]
	if raw == "" {
		return sortKey{id: id, null: true}, nil
	}
	k := sortKey{id: id}
	switch o.co.Collation {
	case CollateLexicographic:
	case CollateCaseInsensitive:
		o.str[id] = strings.ToLower(raw)
	case CollateNumeric:
		f, ok := parseNumeric(raw)
		k.num, k.bucket = floatKey(f), bucketOf(ok)
	case CollateDate:
		ts, ok := parseDate(raw)
		k.num, k.bucket = ts, bucketOf(ok)
	case CollateRank:
		i, ok := o.ranks[raw]
		k.num, k.bucket = int64(i), bucketOf(ok)
	default:
		return k, defaultKey(&k, o.typ, raw)
	}
	return k, nil
}

// bucketOf is the bucket of a value whose parse succeeded (0) or failed (1).
func bucketOf(parsed bool) uint8 {
	if parsed {
		return 0
	}
	return 1
}

// defaultKey fills in the type-driven key of CollateDefault: the historical
// Encode behavior, including its errors on values that contradict the
// declared type. Distinct raw values that parse equal (e.g. "1" and "01" as
// integers, "1" and "1.0" as floats) tie on num, and keyOrder.compare breaks
// the tie by the raw string, so they keep distinct ranks.
func defaultKey(k *sortKey, t Type, raw string) error {
	switch t {
	case TypeInt:
		n, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			return fmt.Errorf("value %q is not an integer: %w", raw, err)
		}
		k.num = n
	case TypeFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return fmt.Errorf("value %q is not a float: %w", raw, err)
		}
		// NaN breaks the strict weak order of float comparison (it is
		// neither less than nor equal to anything); park it in the
		// fallback bucket, ordered by raw string, to keep the key order
		// total and deterministic.
		k.num, k.bucket = floatKey(f), bucketOf(!math.IsNaN(f))
	case TypeDate:
		ts, ok := parseDate(raw)
		if !ok {
			return fmt.Errorf("value %q is not a recognized date", raw)
		}
		k.num = ts
	}
	return nil
}

// compare totally orders two keys of the column under the column order:
// nulls are placed by Nulls independent of Direction, and Direction inverts
// the whole non-null comparison.
func (o *keyOrder) compare(a, b sortKey) int {
	if a.null || b.null {
		switch {
		case a.null && b.null:
			return 0
		case a.null:
			if o.co.Nulls == NullsLast {
				return 1
			}
			return -1
		default:
			if o.co.Nulls == NullsLast {
				return -1
			}
			return 1
		}
	}
	c := o.ascending(a, b)
	if o.co.Direction == Desc {
		c = -c
	}
	return c
}

// ascending orders two non-null keys ascending: bucket, then (for a
// numeric-like bucket-0 pair) num, then the string comparand.
func (o *keyOrder) ascending(a, b sortKey) int {
	if a.bucket != b.bucket {
		return int(a.bucket) - int(b.bucket)
	}
	if a.bucket == 0 && o.numeric {
		if c := cmp.Compare(a.num, b.num); c != 0 || o.merge {
			return c
		}
	}
	return strings.Compare(o.str[a.id], o.str[b.id])
}

// parseDate parses a raw value under the first matching accepted layout and
// returns its unix time. Every layout needs at least 10 bytes and opens with
// a digit (a four-digit year or a two-digit month), so a value without both
// is rejected before time.Parse, which would allocate an error per layout:
// date collation on a column of short integers or names parses nothing.
func parseDate(raw string) (int64, bool) {
	v := strings.TrimSpace(raw)
	if len(v) < 10 || v[0] < '0' || v[0] > '9' {
		return 0, false
	}
	for _, layout := range dateLayouts {
		if ts, err := time.Parse(layout, v); err == nil {
			return ts.Unix(), true
		}
	}
	return 0, false
}

// Compare is the reference comparator of the spec-to-rank contract: it
// orders two raw values of a column with type t directly under the column
// order, independently of the key-based encoding path. It is total on any
// input (even values Encode would reject under CollateDefault — those fall
// back to bytewise order so the comparator never errors), and EncodeSpec
// guarantees sign(rank(a)-rank(b)) == sign(Compare(co, t, a, b)) for every
// pair of values of an encoded column; FuzzEncodeSpec enforces exactly that.
func Compare(co ColumnOrder, t Type, a, b string) int {
	if a == "" || b == "" {
		switch {
		case a == "" && b == "":
			return 0
		case a == "":
			if co.Nulls == NullsLast {
				return 1
			}
			return -1
		default:
			if co.Nulls == NullsLast {
				return -1
			}
			return 1
		}
	}
	c := compareNonNull(co, t, a, b)
	if co.Direction == Desc {
		c = -c
	}
	return c
}

// compareNonNull orders two non-null values ascending under the collation.
func compareNonNull(co ColumnOrder, t Type, a, b string) int {
	switch co.Collation {
	case CollateLexicographic:
		return strings.Compare(a, b)
	case CollateCaseInsensitive:
		return strings.Compare(strings.ToLower(a), strings.ToLower(b))
	case CollateNumeric:
		fa, oka := parseNumeric(a)
		fb, okb := parseNumeric(b)
		return comparePrimary(fa, oka, fb, okb, a, b, false)
	case CollateDate:
		da, oka := parseDate(a)
		db, okb := parseDate(b)
		return comparePrimary(float64(da), oka, float64(db), okb, a, b, false)
	case CollateRank:
		ia, oka := rankIndex(co.Ranks, a)
		ib, okb := rankIndex(co.Ranks, b)
		return comparePrimary(float64(ia), oka, float64(ib), okb, a, b, false)
	default:
		switch t {
		case TypeInt:
			ia, erra := strconv.ParseInt(strings.TrimSpace(a), 10, 64)
			ib, errb := strconv.ParseInt(strings.TrimSpace(b), 10, 64)
			if erra == nil && errb == nil {
				if c := cmp.Compare(ia, ib); c != 0 {
					return c
				}
				return strings.Compare(a, b)
			}
			// A value Encode would reject: keep the float comparison's
			// total fallback.
			fa, oka := parseNumeric(a)
			fb, okb := parseNumeric(b)
			return comparePrimary(fa, oka, fb, okb, a, b, true)
		case TypeFloat:
			fa, oka := parseNumeric(a)
			fb, okb := parseNumeric(b)
			return comparePrimary(fa, oka, fb, okb, a, b, true)
		case TypeDate:
			da, oka := parseDate(a)
			db, okb := parseDate(b)
			return comparePrimary(float64(da), oka, float64(db), okb, a, b, true)
		default:
			return strings.Compare(a, b)
		}
	}
}

// comparePrimary orders two values that each either carry a primary numeric
// magnitude (ok) or fall back to bytewise order: primaries first, then
// magnitude, then — for non-merging (default) collations — the raw string.
func comparePrimary(fa float64, oka bool, fb float64, okb bool, a, b string, tieOnRaw bool) int {
	switch {
	case oka && okb:
		if fa != fb {
			if fa < fb {
				return -1
			}
			return 1
		}
		if tieOnRaw {
			return strings.Compare(a, b)
		}
		return 0
	case oka:
		return -1
	case okb:
		return 1
	default:
		return strings.Compare(a, b)
	}
}

// parseNumeric parses a float, rejecting NaN (which would break totality).
func parseNumeric(raw string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
	if err != nil || math.IsNaN(f) {
		return 0, false
	}
	return f, true
}

// rankIndex is the naive rank-list lookup of the reference comparator (the
// encode path pre-indexes; this one deliberately stays independent).
func rankIndex(ranks []string, v string) (int, bool) {
	for i, r := range ranks {
		if r == v {
			return i, true
		}
	}
	return 0, false
}
