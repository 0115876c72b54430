// Package relation provides the tabular substrate for order-dependency
// discovery: a typed relation instance, CSV input/output, and the
// order-preserving integer (rank) encoding of column values described in
// Section 4.6 of the paper ("The values of the columns are replaced with
// integers ... in a way that the equivalence classes do not change and the
// ordering is preserved").
//
// Every column is a dictionary: its distinct raw values once, plus one int32
// id per row. ReadCSV builds the dictionaries while it decodes, cutting a
// large input into chunks that parallel goroutines scan byte by byte,
// interning each field straight from the input buffer; encoding/csv reads
// only the header and any input the scan rejects. Type sniffing and rank
// encoding then work on distinct values only: sniff, key and sort each
// value once, and map ids to ranks in one pass.
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
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// Column is a single named, typed column of raw values, stored as a
// dictionary: each distinct textual value once, plus one index into the
// dictionary per row. Encode produces the rank representation used by the
// discovery algorithms from the dictionary, so it sniffs, keys and sorts each
// distinct value once, whatever the row count.
type Column struct {
	Name string
	Type Type
	// Dict holds the column's distinct values, in first-seen order when the
	// column comes from NewColumn, FromRows or ReadCSV. Views (Head, Project)
	// share it, so it must not be modified; a view's rows may leave some of
	// its entries unused.
	Dict []string
	// IDs holds one index into Dict per row.
	IDs []int32
}

// NewColumn builds a column of the given type by interning values, one per
// row, into a dictionary.
func NewColumn(name string, typ Type, values []string) Column {
	dict, ids := internValues(len(values), func(i int) string { return values[i] })
	return Column{Name: name, Type: typ, Dict: dict, IDs: ids}
}

// internValues interns value(0) … value(n-1) into a dictionary and returns it
// with one id per value.
func internValues(n int, value func(i int) string) ([]string, []int32) {
	t := newInternTable()
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = t.intern(value(i))
	}
	return t.dict(), ids
}

// Value returns the raw value of row i.
func (c Column) Value(i int) string { return c.Dict[c.IDs[i]] }

// Len returns the number of rows.
func (c Column) Len() int { return len(c.IDs) }

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
	return r.Columns[0].Len()
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
	n := r.Columns[0].Len()
	for i, c := range r.Columns {
		if c.Name == "" {
			return fmt.Errorf("relation: column %d has an empty name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("relation: duplicate column name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Len() != n {
			return fmt.Errorf("relation: column %q has %d rows, expected %d", c.Name, c.Len(), n)
		}
	}
	return nil
}

// Project returns a new relation containing only the columns at the given
// indexes, in the given order. Row order is preserved. The result shares
// each column's dictionary but owns its row ids, so a caller may permute its
// rows without touching r.
func (r *Relation) Project(cols []int) (*Relation, error) {
	out := &Relation{Name: r.Name, Columns: make([]Column, 0, len(cols))}
	for _, ci := range cols {
		if ci < 0 || ci >= len(r.Columns) {
			return nil, fmt.Errorf("relation: project column index %d out of range", ci)
		}
		src := r.Columns[ci]
		out.Columns = append(out.Columns, Column{Name: src.Name, Type: src.Type, Dict: src.Dict, IDs: slices.Clone(src.IDs)})
	}
	return out, nil
}

// Head returns a relation containing only the first n rows (or all rows if n
// exceeds the row count). Column order and types are preserved. The result
// shares r's dictionaries and row ids, which some of its rows may not use.
func (r *Relation) Head(n int) *Relation {
	n = min(n, r.NumRows())
	out := &Relation{Name: r.Name, Columns: make([]Column, len(r.Columns))}
	for i, c := range r.Columns {
		out.Columns[i] = Column{Name: c.Name, Type: c.Type, Dict: c.Dict, IDs: c.IDs[:n:n]}
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
	// Base is the default encoding an order-spec re-encoding was made from
	// (nil for a default encoding), and Equality its equality signature
	// against Base: empty when every column keeps its base cardinality, and
	// so its classes, else the merged columns with their collations. Equal
	// signatures mean equal partitions, so a store bound to Base serves both.
	Base     *Encoded
	Equality string
	rows     int
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
//
// The result depends only on the set of distinct values: every candidate
// survives only if it parses every non-empty value, and empty values are
// skipped. So a column's dictionary sniffs as its rows do, in any order.
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
// sniffing each column's type from its distinct values. It is the common
// path for test fixtures and synthetic generators.
func FromRows(name string, header []string, rows [][]string) (*Relation, error) {
	if len(header) == 0 {
		return nil, errors.New("relation: empty header")
	}
	for ri, row := range rows {
		if len(row) != len(header) {
			return nil, raggedRowError(ri, len(row), len(header))
		}
	}
	cols := make([]Column, len(header))
	for ci, h := range header {
		dict, ids := internValues(len(rows), func(i int) string { return rows[i][ci] })
		cols[ci] = Column{Name: h, Type: SniffType(dict), Dict: dict, IDs: ids}
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
			row[j] = c.Value(i)
		}
		out[i] = row
	}
	return out
}

// raggedRowError is the error for a data row whose field count differs from
// the header's; row counts data rows from 0.
func raggedRowError(row, fields, want int) error {
	return fmt.Errorf("relation: row %d has %d fields, expected %d", row, fields, want)
}

// parallel runs fn(0) … fn(n-1) on up to GOMAXPROCS goroutines and returns
// the error of the lowest index that failed: the error a sequential loop
// stopping at its first failure returns. A panic in fn is recovered on its
// goroutine and raised again on the caller's once every worker has stopped.
func parallel(n int, fn func(i int) error) error {
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	panics := make([]any, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[w] = recover() }()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
