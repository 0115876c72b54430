package fastod

import (
	"fmt"

	"repro/internal/advisor"
	"repro/internal/approx"
	"repro/internal/bidir"
	"repro/internal/canonical"
	"repro/internal/conditional"
	"repro/internal/listod"
	"repro/internal/odparse"
)

// This file exposes the extension modules: approximate ODs and bidirectional
// ODs (the future-work directions named in the paper's conclusion), the
// query-optimization advisor built on discovered ODs, and the textual OD
// syntax used to exchange dependencies with users and tools.

// Approximate order dependencies.
type (
	// ApproxResult is the outcome of an approximate discovery run; its
	// Stats are the run's RunStats.
	ApproxResult = approx.Result
	// ApproxError reports how far an OD is from holding (minimum removals).
	ApproxError = approx.Error
	// ODError pairs an OD with its measured error.
	ODError = approx.ODError
)

// ODErrorOf measures the error of one canonical OD on the dataset.
func (d *Dataset) ODErrorOf(od OD) (ApproxError, error) {
	return approx.ErrorOf(d.enc, od)
}

// ProfileODs measures the error of every given OD, producing a data-quality
// report (exact ODs have error zero).
func (d *Dataset) ProfileODs(ods []OD) ([]ODError, error) {
	return approx.Profile(d.enc, ods)
}

// Bidirectional order dependencies.
type (
	// BidirOD is a bidirectional canonical OD (with polarity).
	BidirOD = bidir.OD
	// Polarity distinguishes same-direction from opposite-direction
	// order compatibility.
	Polarity = bidir.Polarity
	// BidirResult is the outcome of a bidirectional discovery run; its
	// Stats are the run's RunStats.
	BidirResult = bidir.Result
)

// Polarities re-exported for bidirectional ODs.
const (
	SameDirection     = bidir.SameDirection
	OppositeDirection = bidir.OppositeDirection
)

// DirectedColumn names a column together with its sort direction, one entry
// of a side of CheckBidirListOD. Any Dir but OrderDesc is ascending.
type DirectedColumn struct {
	Column string
	Dir    OrderDirection
}

// CheckBidirListOD reports whether the bidirectional list OD "left ↦ right"
// holds, with each side given as (column name, direction) pairs, as in SQL
// "ORDER BY a ASC, b DESC". Each descending column is ranked DESC NULLS
// LAST, the exact reverse of its default order, through SpecEncoded (cached
// per spec), and on that encoding the OD is the plain list OD CheckListOD
// checks. One encoding ranks a column one way, so naming a column both
// ascending and descending is an error.
func (d *Dataset) CheckBidirListOD(left, right []DirectedColumn) (bool, error) {
	desc := make(map[int]bool)
	var orders []AttrOrder
	resolve := func(cols []DirectedColumn) (listod.Spec, error) {
		out := make(listod.Spec, len(cols))
		for i, c := range cols {
			a := d.enc.ColumnIndex(c.Column)
			if a < 0 {
				return nil, fmt.Errorf("fastod: unknown column %q", c.Column)
			}
			isDesc := c.Dir == OrderDesc
			if prev, seen := desc[a]; !seen {
				desc[a] = isDesc
				if isDesc {
					orders = append(orders, AttrOrder{Column: c.Column, Direction: OrderDesc, Nulls: NullsLast})
				}
			} else if prev != isDesc {
				return nil, fmt.Errorf("fastod: column %q is named both ascending and descending", c.Column)
			}
			out[i] = a
		}
		return out, nil
	}
	l, err := resolve(left)
	if err != nil {
		return false, err
	}
	r, err := resolve(right)
	if err != nil {
		return false, err
	}
	enc, err := d.SpecEncoded(orders)
	if err != nil {
		return false, err
	}
	return listod.Holds(enc, l, r), nil
}

// Conditional order dependencies.
type (
	// ConditionalResult is the outcome of a conditional discovery run. Its
	// Stats total the nodes of the unconditional and every slice pass, keep
	// the deepest level of any pass, and count the unconditional pass's
	// partition-store hits and misses.
	ConditionalResult = conditional.Result
	// ConditionalOD is an OD that holds on the portion of the relation
	// selected by an equality condition, but not unconditionally.
	ConditionalOD = conditional.OD
)

// Query-optimization advisor.
type (
	// Advisor answers rewrite questions against a set of discovered ODs.
	Advisor = advisor.Advisor
	// AdvisorQuery describes the ordering-relevant parts of a query.
	AdvisorQuery = advisor.Query
	// Suggestion is one piece of query-optimization advice.
	Suggestion = advisor.Suggestion
	// SuggestionKind classifies a suggestion.
	SuggestionKind = advisor.SuggestionKind
)

// Advisor suggestion kinds.
const (
	DropConstant      = advisor.DropConstant
	SimplifiedOrderBy = advisor.SimplifiedOrderBy
	SimplifiedGroupBy = advisor.SimplifiedGroupBy
	SortElimination   = advisor.SortElimination
	JoinElimination   = advisor.JoinElimination
)

// NewAdvisor builds a query-optimization advisor from discovered canonical
// ODs and the dataset's column names (typically Result.ODs and
// Result.ColumnNames).
func NewAdvisor(ods []OD, columnNames []string) *Advisor {
	return advisor.New(ods, columnNames)
}

// Textual OD expressions.
type (
	// Statement is a parsed dependency expression over attribute names.
	Statement = odparse.Statement
	// StatementKind identifies the parsed form (list OD, canonical OD, ...).
	StatementKind = odparse.StatementKind
)

// ParseOD parses one dependency expression, e.g. "[sal] -> [tax]" or
// "{yr}: bin ~ sal".
func ParseOD(input string) (Statement, error) { return odparse.Parse(input) }

// ParseODs parses a newline-separated list of dependency expressions,
// ignoring blank lines and '#' comments.
func ParseODs(input string) ([]Statement, error) { return odparse.ParseAll(input) }

// FormatOD renders a canonical OD in the parseable textual syntax; it is
// od.NamesString, the rendering the CLI and odserve print.
func FormatOD(od OD, columnNames []string) string {
	return od.NamesString(columnNames)
}

// StatementCheck is the outcome of checking one parsed statement against a
// dataset.
type StatementCheck struct {
	Statement Statement
	// Holds reports whether the dependency holds exactly.
	Holds bool
	// Violation carries a witness pair when a canonical statement fails; it
	// is nil for list statements and for holding statements.
	Violation *Violation
	// Error is the approximate error of canonical statements (zero when the
	// statement holds); it is nil for list statements.
	Error *ApproxError
}

// CheckStatement evaluates one parsed dependency expression against the
// dataset: list statements are checked via the list-based semantics,
// canonical statements by one canonical.FindViolation call, whose witness
// decides whether they hold; only a failing one has its approximate error
// measured, since a holding one's is zero.
//
// Per-attribute order modifiers in the expression ("salary DESC NULLS LAST")
// are honored: the statement is evaluated against a re-encoding of the
// dataset under the requested orders (cached per spec, shared with Run).
func (d *Dataset) CheckStatement(st Statement) (StatementCheck, error) {
	enc := d.enc
	if len(st.Orders) > 0 {
		var err error
		if enc, err = d.SpecEncoded(attrOrders(st.Orders)); err != nil {
			return StatementCheck{}, err
		}
	}
	resolved, err := odparse.Resolve(st, enc.ColumnIndex)
	if err != nil {
		return StatementCheck{}, err
	}
	out := StatementCheck{Statement: st}
	switch st.Kind {
	case odparse.ListOD:
		out.Holds = listod.Holds(enc, resolved.Left, resolved.Right)
	case odparse.ListOrderCompat:
		out.Holds = listod.OrderCompatible(enc, resolved.Left, resolved.Right)
	default: // a canonical statement: Resolve rejects every other kind
		v, violated, err := canonical.FindViolation(enc, resolved.Canonical)
		if err != nil {
			return StatementCheck{}, err
		}
		out.Holds, out.Error = !violated, &ApproxError{}
		if violated {
			e, err := approx.ErrorOf(enc, resolved.Canonical)
			if err != nil {
				return StatementCheck{}, err
			}
			out.Violation, out.Error = &v, &e
		}
	}
	return out, nil
}
