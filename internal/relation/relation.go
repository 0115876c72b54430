// Package relation provides the tabular substrate for order-dependency
// discovery: a typed relation instance, CSV input/output, and the
// order-preserving integer (rank) encoding of column values described in
// Section 4.6 of the paper ("The values of the columns are replaced with
// integers ... in a way that the equivalence classes do not change and the
// ordering is preserved").
//
// Ordering semantics are first-class: an OrderSpec chooses, per column, the
// sort direction (Asc/Desc), the NULL placement (NullsFirst/NullsLast) and
// the collation (type-driven default, lexicographic, numeric, date,
// case-insensitive, or a user-defined rank list), and EncodeSpec compiles
// the whole spec into plain dense ranks. Downstream algorithms never see
// the spec — integer order IS the requested order.
package relation

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Type identifies how raw values of a column are interpreted for ordering.
type Type int

// Column types. Numbers are ordered numerically, strings lexicographically
// and dates chronologically (all ascending), per Section 2.1 of the paper.
const (
	TypeString Type = iota
	TypeInt
	TypeFloat
	TypeDate
)

// String returns a human-readable name for the type.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeDate:
		return "date"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// dateLayouts are the date formats the type sniffer and parser accept.
var dateLayouts = []string{"2006-01-02", "2006/01/02", "01/02/2006", time.RFC3339}

// Column is a single named, typed column of raw values. Raw values are kept
// as strings; Encode produces the rank representation used by the discovery
// algorithms.
type Column struct {
	Name string
	Type Type
	// Raw holds the original textual values, one per row.
	Raw []string
}

// Relation is a relation instance: an ordered list of columns of equal
// length. It is the input to all discovery algorithms in this module.
type Relation struct {
	Name    string
	Columns []Column
}

// New creates an empty relation with the given name and column definitions.
func New(name string, cols ...Column) *Relation {
	return &Relation{Name: name, Columns: cols}
}

// NumRows returns the number of tuples.
func (r *Relation) NumRows() int {
	if len(r.Columns) == 0 {
		return 0
	}
	return len(r.Columns[0].Raw)
}

// NumCols returns the number of attributes.
func (r *Relation) NumCols() int { return len(r.Columns) }

// ColumnNames returns the attribute names in schema order.
func (r *Relation) ColumnNames() []string {
	names := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		names[i] = c.Name
	}
	return names
}

// ColumnIndex returns the index of the named column, or -1 if absent.
func (r *Relation) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks structural consistency: at least one column, unique column
// names, and equal column lengths.
func (r *Relation) Validate() error {
	if len(r.Columns) == 0 {
		return errors.New("relation: no columns")
	}
	if len(r.Columns) > 64 {
		return fmt.Errorf("relation: %d columns exceeds the 64-attribute limit", len(r.Columns))
	}
	seen := make(map[string]bool, len(r.Columns))
	n := len(r.Columns[0].Raw)
	for i, c := range r.Columns {
		if c.Name == "" {
			return fmt.Errorf("relation: column %d has an empty name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("relation: duplicate column name %q", c.Name)
		}
		seen[c.Name] = true
		if len(c.Raw) != n {
			return fmt.Errorf("relation: column %q has %d rows, expected %d", c.Name, len(c.Raw), n)
		}
	}
	return nil
}

// Project returns a new relation containing only the columns at the given
// indexes, in the given order. Row order is preserved.
func (r *Relation) Project(cols []int) (*Relation, error) {
	out := &Relation{Name: r.Name, Columns: make([]Column, 0, len(cols))}
	for _, ci := range cols {
		if ci < 0 || ci >= len(r.Columns) {
			return nil, fmt.Errorf("relation: project column index %d out of range", ci)
		}
		src := r.Columns[ci]
		raw := make([]string, len(src.Raw))
		copy(raw, src.Raw)
		out.Columns = append(out.Columns, Column{Name: src.Name, Type: src.Type, Raw: raw})
	}
	return out, nil
}

// Head returns a new relation containing only the first n rows (or all rows
// if n exceeds the row count). Column order and types are preserved.
func (r *Relation) Head(n int) *Relation {
	if n > r.NumRows() {
		n = r.NumRows()
	}
	out := &Relation{Name: r.Name, Columns: make([]Column, len(r.Columns))}
	for i, c := range r.Columns {
		raw := make([]string, n)
		copy(raw, c.Raw[:n])
		out.Columns[i] = Column{Name: c.Name, Type: c.Type, Raw: raw}
	}
	return out
}

// Encoded is the rank-encoded form of a relation: every column value is
// replaced by a dense integer rank such that equal raw values get equal
// ranks and the ordering of ranks matches the ordering of raw values for the
// column's type. All discovery algorithms operate on this representation.
type Encoded struct {
	Name string
	// ColumnNames holds the attribute names in schema order.
	ColumnNames []string
	// Values[col][row] is the rank of the value of attribute col in tuple row.
	Values [][]int32
	// Cardinality[col] is the number of distinct values in attribute col.
	Cardinality []int
	rows        int
}

// NumRows returns the number of tuples in the encoded relation.
func (e *Encoded) NumRows() int { return e.rows }

// NumCols returns the number of attributes in the encoded relation.
func (e *Encoded) NumCols() int { return len(e.ColumnNames) }

// Column returns the rank column for attribute index a.
func (e *Encoded) Column(a int) []int32 { return e.Values[a] }

// ColumnIndex returns the index of the named column, or -1 if absent.
func (e *Encoded) ColumnIndex(name string) int {
	for i, n := range e.ColumnNames {
		if n == name {
			return i
		}
	}
	return -1
}

// ProjectColumns returns an encoded relation restricted to the first k
// attributes. It shares the underlying rank slices (no copy); callers must
// treat the result as read-only, which every algorithm in this module does.
func (e *Encoded) ProjectColumns(k int) *Encoded {
	if k > e.NumCols() {
		k = e.NumCols()
	}
	return &Encoded{
		Name:        e.Name,
		ColumnNames: e.ColumnNames[:k],
		Values:      e.Values[:k],
		Cardinality: e.Cardinality[:k],
		rows:        e.rows,
	}
}

// SelectRows returns an encoded relation containing only the given tuples, in
// the given order. Ranks are not re-densified: equality and relative order
// are preserved, which is all the algorithms require. Row indexes must be in
// range; duplicates are allowed (the result simply repeats the tuple).
func (e *Encoded) SelectRows(rows []int) (*Encoded, error) {
	vals := make([][]int32, len(e.Values))
	card := make([]int, len(e.Values))
	for ci, col := range e.Values {
		out := make([]int32, len(rows))
		distinct := make(map[int32]struct{})
		for i, r := range rows {
			if r < 0 || r >= e.rows {
				return nil, fmt.Errorf("relation: selected row %d out of range [0,%d)", r, e.rows)
			}
			out[i] = col[r]
			distinct[col[r]] = struct{}{}
		}
		vals[ci] = out
		card[ci] = len(distinct)
	}
	return &Encoded{
		Name:        e.Name,
		ColumnNames: e.ColumnNames,
		Values:      vals,
		Cardinality: card,
		rows:        len(rows),
	}, nil
}

// HeadRows returns an encoded relation restricted to the first n tuples.
// Ranks are not re-densified: equality and relative order are preserved,
// which is all the algorithms require.
func (e *Encoded) HeadRows(n int) *Encoded {
	if n > e.rows {
		n = e.rows
	}
	vals := make([][]int32, len(e.Values))
	card := make([]int, len(e.Values))
	for i, col := range e.Values {
		vals[i] = col[:n]
		distinct := make(map[int32]struct{})
		for _, v := range col[:n] {
			distinct[v] = struct{}{}
		}
		card[i] = len(distinct)
	}
	return &Encoded{
		Name:        e.Name,
		ColumnNames: e.ColumnNames,
		Values:      vals,
		Cardinality: card,
		rows:        n,
	}
}

// Encode converts a raw relation into its rank-encoded form under the
// default ordering: each column is encoded independently, its distinct
// values sorted according to the column type (ascending, missing values —
// empty strings — first, mirroring SQL NULLS FIRST) and replaced by their
// dense rank (0-based). Encode(r) is exactly EncodeSpec(r, nil); pass an
// OrderSpec to EncodeSpec to choose per-column direction, NULL placement
// and collation instead. Either way the encoding honors the spec-to-rank
// contract: equal ranks ⇔ equal values under the collation, and rank order
// ⇔ value order under the column order.
func Encode(r *Relation) (*Encoded, error) {
	return EncodeSpec(r, nil)
}

// SniffType inspects sample values and returns the most specific type that
// parses every non-empty value: int, then float, then date, then string.
// Dates only sniff when ONE accepted layout parses every non-empty value;
// columns mixing layouts (e.g. "2006-01-02" and "01/02/2006") fall back to
// string, because no single chronological interpretation covers them. The
// sniffed type is only a default — an OrderSpec collation overrides it at
// encode time.
//
// Each value is parsed only as the candidate types still alive, and a value
// ParseInt accepts skips ParseFloat: every base-10 integer also parses as a
// float, so the shortcut never changes the sniffed type.
func SniffType(values []string) Type {
	isInt, isFloat := true, true
	layoutOK := make([]bool, len(dateLayouts))
	for i := range layoutOK {
		layoutOK[i] = true
	}
	isDate := true
	nonEmpty := 0
	for _, v := range values {
		v = strings.TrimSpace(v)
		if v == "" {
			continue
		}
		nonEmpty++
		intOK := false
		if isInt {
			_, err := strconv.ParseInt(v, 10, 64)
			intOK = err == nil
			isInt = intOK
		}
		if isFloat && !intOK {
			_, err := strconv.ParseFloat(v, 64)
			isFloat = err == nil
		}
		if isDate {
			any := false
			for li, layout := range dateLayouts {
				if !layoutOK[li] {
					continue
				}
				if _, err := time.Parse(layout, v); err != nil {
					layoutOK[li] = false
				} else {
					any = true
				}
			}
			isDate = any
		}
		if !isInt && !isFloat && !isDate {
			return TypeString
		}
	}
	if nonEmpty == 0 {
		return TypeString
	}
	switch {
	case isInt:
		return TypeInt
	case isFloat:
		return TypeFloat
	case isDate:
		return TypeDate
	default:
		return TypeString
	}
}

// FromRows builds a relation from a header and row-major string data,
// sniffing each column's type. It is the common path for test fixtures and
// synthetic generators.
func FromRows(name string, header []string, rows [][]string) (*Relation, error) {
	if len(header) == 0 {
		return nil, errors.New("relation: empty header")
	}
	cols := make([]Column, len(header))
	for ci, h := range header {
		raw := make([]string, len(rows))
		for ri, row := range rows {
			if len(row) != len(header) {
				return nil, fmt.Errorf("relation: row %d has %d fields, expected %d", ri, len(row), len(header))
			}
			raw[ri] = row[ci]
		}
		cols[ci] = Column{Name: h, Type: SniffType(raw), Raw: raw}
	}
	r := New(name, cols...)
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// Rows returns the relation contents in row-major raw form (useful for
// round-tripping through CSV and for tests).
func (r *Relation) Rows() [][]string {
	n := r.NumRows()
	out := make([][]string, n)
	for i := 0; i < n; i++ {
		row := make([]string, len(r.Columns))
		for j, c := range r.Columns {
			row[j] = c.Raw[i]
		}
		out[i] = row
	}
	return out
}
