// Package odparse parses textual order-dependency expressions, so that
// dependencies can be exchanged with users and tools (the cmd/odcheck
// command reads them from files). Two surface syntaxes are supported, both
// using attribute names:
//
//	list-based ODs and order compatibility:
//	    [A,B] -> [C,D]        the OD "A,B orders C,D"
//	    [A] ~ [B]             order compatibility
//
//	set-based canonical ODs (the paper's notation):
//	    {A,B}: [] -> C        constancy OD, C constant per equivalence class
//	    {A}: B ~ C            order-compatibility OD within context {A}
//	    {}: [] -> C           empty context
//
// Every attribute occurrence may carry ordering modifiers, in SQL ORDER BY
// style (keywords case-insensitive, each modifier optional, any order):
//
//	[A DESC, B] -> [C NULLS LAST]
//	{A}: B desc nulls last ~ C collate ci
//
// The modifiers are ASC|DESC, NULLS FIRST|LAST and COLLATE
// <lexicographic|lex|numeric|date|case-insensitive|ci>; they accumulate into
// Statement.Orders (one entry per attribute that carries an explicit
// modifier — an attribute's order applies to every occurrence in the
// statement, so conflicting modifiers on one attribute are an error). The
// rank-list collation has no textual form. Whitespace is insignificant
// around delimiters; attribute names may contain any characters except the
// delimiters ,]}~>: and whitespace, and are matched against the relation's
// columns during resolution.
//
// The package does not format. Discovered dependencies render through their
// own types: canonical.OD.NamesString and listod.OD.Names print the two forms
// above, so their output parses back. TANE's FDs ("{A} -> C") and
// bidirectional ODs (with a "(same)" or "(opposite)" suffix) print forms of
// their own that this syntax does not read.
package odparse

import (
	"fmt"
	"strings"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/listod"
	"repro/internal/relation"
)

// StatementKind identifies the parsed form.
type StatementKind int

// Statement kinds.
const (
	// ListOD is "[X] -> [Y]".
	ListOD StatementKind = iota
	// ListOrderCompat is "[X] ~ [Y]".
	ListOrderCompat
	// CanonicalConstancy is "{X}: [] -> A".
	CanonicalConstancy
	// CanonicalOrderCompat is "{X}: A ~ B".
	CanonicalOrderCompat
)

// String names the statement kind.
func (k StatementKind) String() string {
	switch k {
	case ListOD:
		return "list OD"
	case ListOrderCompat:
		return "list order compatibility"
	case CanonicalConstancy:
		return "canonical constancy OD"
	case CanonicalOrderCompat:
		return "canonical order-compatibility OD"
	default:
		return fmt.Sprintf("StatementKind(%d)", int(k))
	}
}

// NamedOrder pairs an attribute name with the explicit column order its
// modifiers selected.
type NamedOrder struct {
	Name  string
	Order relation.ColumnOrder
}

// Statement is a parsed dependency expression over attribute names.
type Statement struct {
	Kind StatementKind
	// Left and Right are the attribute-name lists of list-based statements.
	Left, Right []string
	// Context is the context of canonical statements.
	Context []string
	// A and B are the right-hand attributes of canonical statements (B is
	// empty for constancy ODs).
	A, B string
	// Orders holds one entry per attribute that carried explicit ordering
	// modifiers anywhere in the statement (ASC/DESC, NULLS FIRST/LAST,
	// COLLATE ...). Attributes without modifiers are absent: they keep
	// whatever order the evaluation context supplies.
	Orders []NamedOrder
	// Source is the original text, for error reporting by callers.
	Source string
}

// Parse parses one dependency expression.
func Parse(input string) (Statement, error) {
	s := strings.TrimSpace(input)
	if s == "" {
		return Statement{}, fmt.Errorf("odparse: empty expression")
	}
	if strings.HasPrefix(s, "{") {
		return parseCanonical(s)
	}
	if strings.HasPrefix(s, "[") {
		return parseList(s)
	}
	return Statement{}, fmt.Errorf("odparse: %q: expected '{' (canonical OD) or '[' (list OD)", s)
}

// ParseAll parses a newline-separated list of expressions, skipping blank
// lines and lines starting with '#'.
func ParseAll(input string) ([]Statement, error) {
	var out []Statement
	for lineNo, line := range strings.Split(input, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		st, err := Parse(trimmed)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		out = append(out, st)
	}
	return out, nil
}

func parseCanonical(s string) (Statement, error) {
	end := strings.Index(s, "}")
	if end < 0 {
		return Statement{}, fmt.Errorf("odparse: %q: missing '}'", s)
	}
	ctx, orders, err := splitNames(s[1:end], true, nil)
	if err != nil {
		return Statement{}, fmt.Errorf("odparse: %q: %w", s, err)
	}
	rest := strings.TrimSpace(s[end+1:])
	if !strings.HasPrefix(rest, ":") {
		return Statement{}, fmt.Errorf("odparse: %q: expected ':' after context", s)
	}
	rest = strings.TrimSpace(rest[1:])

	if strings.HasPrefix(rest, "[") {
		// "{X}: [] -> A"
		closing := strings.Index(rest, "]")
		if closing < 0 || strings.TrimSpace(rest[1:closing]) != "" {
			return Statement{}, fmt.Errorf("odparse: %q: constancy ODs require an empty '[]' left side", s)
		}
		rest = strings.TrimSpace(rest[closing+1:])
		if !strings.HasPrefix(rest, "->") {
			return Statement{}, fmt.Errorf("odparse: %q: expected '->' in constancy OD", s)
		}
		attr, ord, explicit, err := parseAttr(rest[2:])
		if err != nil {
			return Statement{}, fmt.Errorf("odparse: %q: %w", s, err)
		}
		orders, err = addOrder(orders, attr, ord, explicit)
		if err != nil {
			return Statement{}, fmt.Errorf("odparse: %q: %w", s, err)
		}
		return Statement{Kind: CanonicalConstancy, Context: ctx, A: attr, Orders: orders, Source: s}, nil
	}

	// "{X}: A ~ B"
	parts := strings.Split(rest, "~")
	if len(parts) != 2 {
		return Statement{}, fmt.Errorf("odparse: %q: expected 'A ~ B' or '[] -> A' after the context", s)
	}
	a, aOrd, aExp, err := parseAttr(parts[0])
	if err != nil {
		return Statement{}, fmt.Errorf("odparse: %q: %w", s, err)
	}
	b, bOrd, bExp, err := parseAttr(parts[1])
	if err != nil {
		return Statement{}, fmt.Errorf("odparse: %q: %w", s, err)
	}
	if orders, err = addOrder(orders, a, aOrd, aExp); err != nil {
		return Statement{}, fmt.Errorf("odparse: %q: %w", s, err)
	}
	if orders, err = addOrder(orders, b, bOrd, bExp); err != nil {
		return Statement{}, fmt.Errorf("odparse: %q: %w", s, err)
	}
	return Statement{Kind: CanonicalOrderCompat, Context: ctx, A: a, B: b, Orders: orders, Source: s}, nil
}

func parseList(s string) (Statement, error) {
	left, orders, rest, err := parseBracketList(s, nil)
	if err != nil {
		return Statement{}, fmt.Errorf("odparse: %q: %w", s, err)
	}
	rest = strings.TrimSpace(rest)
	var kind StatementKind
	switch {
	case strings.HasPrefix(rest, "->"):
		kind = ListOD
		rest = rest[2:]
	case strings.HasPrefix(rest, "~"):
		kind = ListOrderCompat
		rest = rest[1:]
	default:
		return Statement{}, fmt.Errorf("odparse: %q: expected '->' or '~' between the sides", s)
	}
	rest = strings.TrimSpace(rest)
	right, orders, tail, err := parseBracketList(rest, orders)
	if err != nil {
		return Statement{}, fmt.Errorf("odparse: %q: %w", s, err)
	}
	if strings.TrimSpace(tail) != "" {
		return Statement{}, fmt.Errorf("odparse: %q: unexpected trailing text %q", s, tail)
	}
	if len(left) == 0 && len(right) == 0 {
		return Statement{}, fmt.Errorf("odparse: %q: both sides are empty", s)
	}
	return Statement{Kind: kind, Left: left, Right: right, Orders: orders, Source: s}, nil
}

// parseBracketList parses a leading "[a desc, b, ...]" and returns the names,
// the accumulated explicit orders, and the remaining text.
func parseBracketList(s string, orders []NamedOrder) ([]string, []NamedOrder, string, error) {
	if !strings.HasPrefix(s, "[") {
		return nil, nil, "", fmt.Errorf("expected '['")
	}
	end := strings.Index(s, "]")
	if end < 0 {
		return nil, nil, "", fmt.Errorf("missing ']'")
	}
	names, orders, err := splitNames(s[1:end], true, orders)
	if err != nil {
		return nil, nil, "", err
	}
	return names, orders, s[end+1:], nil
}

// splitNames parses a comma-separated attribute list, each entry optionally
// carrying ordering modifiers, accumulating explicit orders into orders.
func splitNames(s string, allowEmpty bool, orders []NamedOrder) ([]string, []NamedOrder, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		if allowEmpty {
			return nil, orders, nil
		}
		return nil, nil, fmt.Errorf("empty attribute list")
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		name, ord, explicit, err := parseAttr(p)
		if err != nil {
			return nil, nil, err
		}
		if orders, err = addOrder(orders, name, ord, explicit); err != nil {
			return nil, nil, err
		}
		out = append(out, name)
	}
	return out, orders, nil
}

// parseAttr parses one attribute occurrence: a name followed by optional
// ordering modifiers (ASC|DESC, NULLS FIRST|LAST, COLLATE <name>), keywords
// case-insensitive, each category at most once. explicit reports whether any
// modifier was present.
func parseAttr(s string) (name string, ord relation.ColumnOrder, explicit bool, err error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return "", ord, false, fmt.Errorf("empty attribute name")
	}
	name = fields[0]
	if err := validName(name); err != nil {
		return "", ord, false, err
	}
	var haveDir, haveNulls, haveColl bool
	for i := 1; i < len(fields); {
		f := fields[i]
		switch {
		case strings.EqualFold(f, "asc") || strings.EqualFold(f, "desc"):
			if haveDir {
				return "", ord, false, fmt.Errorf("attribute %q has more than one direction modifier", name)
			}
			haveDir = true
			ord.Direction, _ = relation.ParseDirection(f)
			i++
		case strings.EqualFold(f, "nulls"):
			if haveNulls {
				return "", ord, false, fmt.Errorf("attribute %q has more than one NULLS modifier", name)
			}
			if i+1 >= len(fields) {
				return "", ord, false, fmt.Errorf("attribute %q: NULLS requires FIRST or LAST", name)
			}
			n, perr := relation.ParseNullOrder(fields[i+1])
			if perr != nil {
				return "", ord, false, fmt.Errorf("attribute %q: %v", name, perr)
			}
			haveNulls = true
			ord.Nulls = n
			i += 2
		case strings.EqualFold(f, "collate"):
			if haveColl {
				return "", ord, false, fmt.Errorf("attribute %q has more than one COLLATE modifier", name)
			}
			if i+1 >= len(fields) {
				return "", ord, false, fmt.Errorf("attribute %q: COLLATE requires a collation name", name)
			}
			c, perr := relation.ParseCollation(fields[i+1])
			if perr != nil {
				return "", ord, false, fmt.Errorf("attribute %q: %v", name, perr)
			}
			if c == relation.CollateRank {
				return "", ord, false, fmt.Errorf("attribute %q: the rank collation has no textual form (supply the rank list programmatically)", name)
			}
			haveColl = true
			ord.Collation = c
			i += 2
		default:
			return "", ord, false, fmt.Errorf("unknown order modifier %q after attribute %q", f, name)
		}
	}
	return name, ord, haveDir || haveNulls || haveColl, nil
}

// addOrder records an attribute's explicit order, erroring when the same
// attribute already carries a DIFFERENT explicit order in this statement (an
// attribute's order applies to all its occurrences). Non-explicit
// occurrences record nothing and conflict with nothing.
func addOrder(orders []NamedOrder, name string, ord relation.ColumnOrder, explicit bool) ([]NamedOrder, error) {
	if !explicit {
		return orders, nil
	}
	for _, o := range orders {
		if o.Name != name {
			continue
		}
		if o.Order.Direction != ord.Direction || o.Order.Nulls != ord.Nulls || o.Order.Collation != ord.Collation {
			return nil, fmt.Errorf("attribute %q has conflicting order modifiers", name)
		}
		return orders, nil
	}
	return append(orders, NamedOrder{Name: name, Order: ord}), nil
}

// ParseOrderSpec parses a standalone comma-separated order spec — the value
// of a CLI -order-spec flag, e.g. "salary desc nulls last, name collate ci".
// Unlike OD expressions it returns EVERY listed attribute, modifiers or not
// (a bare name selects the default order).
func ParseOrderSpec(input string) ([]NamedOrder, error) {
	s := strings.TrimSpace(input)
	if s == "" {
		return nil, nil
	}
	var out []NamedOrder
	for _, p := range strings.Split(s, ",") {
		name, ord, _, err := parseAttr(p)
		if err != nil {
			return nil, fmt.Errorf("odparse: order spec %q: %w", input, err)
		}
		out = append(out, NamedOrder{Name: name, Order: ord})
	}
	return out, nil
}

func validName(name string) error {
	if name == "" {
		return fmt.Errorf("empty attribute name")
	}
	if strings.ContainsAny(name, "{}[],~>:") {
		return fmt.Errorf("attribute name %q contains a reserved character", name)
	}
	return nil
}

// Resolver maps attribute names to column indexes.
type Resolver func(name string) int

// ResolvedStatement is a statement with attribute names resolved to indexes.
type ResolvedStatement struct {
	Statement Statement
	// For list statements.
	Left, Right listod.Spec
	// For canonical statements.
	Canonical canonical.OD
}

// Resolve maps the statement's attribute names through the resolver (such as
// Dataset.ColumnIndex); unknown names are an error.
func Resolve(st Statement, resolve Resolver) (ResolvedStatement, error) {
	lookup := func(name string) (int, error) {
		idx := resolve(name)
		if idx < 0 {
			return 0, fmt.Errorf("odparse: unknown attribute %q in %q", name, st.Source)
		}
		return idx, nil
	}
	out := ResolvedStatement{Statement: st}
	switch st.Kind {
	case ListOD, ListOrderCompat:
		for _, n := range st.Left {
			idx, err := lookup(n)
			if err != nil {
				return ResolvedStatement{}, err
			}
			out.Left = append(out.Left, idx)
		}
		for _, n := range st.Right {
			idx, err := lookup(n)
			if err != nil {
				return ResolvedStatement{}, err
			}
			out.Right = append(out.Right, idx)
		}
		return out, nil
	case CanonicalConstancy, CanonicalOrderCompat:
		var ctx bitset.AttrSet
		for _, n := range st.Context {
			idx, err := lookup(n)
			if err != nil {
				return ResolvedStatement{}, err
			}
			ctx = ctx.Add(idx)
		}
		a, err := lookup(st.A)
		if err != nil {
			return ResolvedStatement{}, err
		}
		if st.Kind == CanonicalConstancy {
			out.Canonical = canonical.NewConstancy(ctx, a)
			return out, nil
		}
		b, err := lookup(st.B)
		if err != nil {
			return ResolvedStatement{}, err
		}
		if a == b {
			out.Canonical = canonical.OD{Context: ctx, Kind: canonical.OrderCompatible, A: a, B: b}
			return out, nil
		}
		out.Canonical = canonical.NewOrderCompatible(ctx, a, b)
		return out, nil
	default:
		return ResolvedStatement{}, fmt.Errorf("odparse: unknown statement kind %v", st.Kind)
	}
}
