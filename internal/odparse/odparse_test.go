package odparse

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/listod"
)

func TestParseListOD(t *testing.T) {
	st, err := Parse(" [ sal , yr ] ->  [tax, perc] ")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if st.Kind != ListOD || !reflect.DeepEqual(st.Left, []string{"sal", "yr"}) ||
		!reflect.DeepEqual(st.Right, []string{"tax", "perc"}) {
		t.Errorf("Parse = %+v", st)
	}
}

func TestParseListOrderCompat(t *testing.T) {
	st, err := Parse("[d_month] ~ [d_week]")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if st.Kind != ListOrderCompat || st.Left[0] != "d_month" || st.Right[0] != "d_week" {
		t.Errorf("Parse = %+v", st)
	}
}

func TestParseCanonicalConstancy(t *testing.T) {
	st, err := Parse("{yr, posit}: [] -> bin")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if st.Kind != CanonicalConstancy || st.A != "bin" || !reflect.DeepEqual(st.Context, []string{"yr", "posit"}) {
		t.Errorf("Parse = %+v", st)
	}
	// Empty context.
	st, err = Parse("{}: [] -> year")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(st.Context) != 0 || st.A != "year" {
		t.Errorf("Parse = %+v", st)
	}
}

func TestParseCanonicalOrderCompat(t *testing.T) {
	st, err := Parse("{yr}: bin ~ sal")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if st.Kind != CanonicalOrderCompat || st.A != "bin" || st.B != "sal" || st.Context[0] != "yr" {
		t.Errorf("Parse = %+v", st)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"sal -> tax",          // missing brackets
		"[sal -> [tax]",       // missing ]
		"[sal] [tax]",         // missing operator
		"[sal] -> [tax] junk", // trailing text
		"[] -> []",            // both sides empty
		"{sal: [] -> tax",     // missing }
		"{sal} [] -> tax",     // missing :
		"{sal}: [x] -> tax",   // non-empty [] in constancy
		"{sal}: [ -> tax",     // missing ]
		"{sal}: [] => tax",    // wrong arrow
		"{sal}: tax",          // no operator
		"{sal}: a ~ b ~ c",    // too many ~
		"{sal}: ~ b",          // empty name
		"[a,,b] -> [c]",       // empty name in list
		"{a}: [] -> b:c",      // reserved character
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseAll(t *testing.T) {
	input := `
# business rules
[sal] -> [tax]

{yr}: bin ~ sal
`
	sts, err := ParseAll(input)
	if err != nil {
		t.Fatalf("ParseAll: %v", err)
	}
	if len(sts) != 2 || sts[0].Kind != ListOD || sts[1].Kind != CanonicalOrderCompat {
		t.Errorf("ParseAll = %+v", sts)
	}
	if _, err := ParseAll("[a] -> [b]\ngarbage\n"); err == nil {
		t.Error("ParseAll should report the failing line")
	}
}

func TestStatementKindString(t *testing.T) {
	kinds := map[StatementKind]string{
		ListOD:               "list OD",
		ListOrderCompat:      "list order compatibility",
		CanonicalConstancy:   "canonical constancy OD",
		CanonicalOrderCompat: "canonical order-compatibility OD",
		StatementKind(9):     "StatementKind(9)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("String() = %q, want %q", k.String(), want)
		}
	}
}

func TestResolve(t *testing.T) {
	cols := []string{"yr", "posit", "bin", "sal", "tax"}
	resolver := func(name string) int {
		for i, c := range cols {
			if c == name {
				return i
			}
		}
		return -1
	}

	st, _ := Parse("[sal] -> [tax]")
	r, err := Resolve(st, resolver)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if !slices.Equal(r.Left, listod.Spec{3}) || !slices.Equal(r.Right, listod.Spec{4}) {
		t.Errorf("Resolve list = %+v", r)
	}

	st, _ = Parse("{yr}: bin ~ sal")
	r, err = Resolve(st, resolver)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	want := canonical.NewOrderCompatible(bitset.NewAttrSet(0), 2, 3)
	if !r.Canonical.Equal(want) {
		t.Errorf("Resolve canonical = %v, want %v", r.Canonical, want)
	}

	st, _ = Parse("{yr,posit}: [] -> bin")
	r, err = Resolve(st, resolver)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if !r.Canonical.Equal(canonical.NewConstancy(bitset.NewAttrSet(0, 1), 2)) {
		t.Errorf("Resolve constancy = %v", r.Canonical)
	}

	// Degenerate identity pair resolves to a trivial OD rather than panicking.
	st, _ = Parse("{yr}: sal ~ sal")
	r, err = Resolve(st, resolver)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if !r.Canonical.IsTrivial() {
		t.Error("identity pair should resolve to a trivial OD")
	}

	// Unknown attribute names fail in every position.
	for _, expr := range []string{"[bogus] -> [sal]", "[sal] -> [bogus]", "{bogus}: [] -> sal", "{yr}: [] -> bogus", "{yr}: sal ~ bogus"} {
		st, _ := Parse(expr)
		if _, err := Resolve(st, resolver); err == nil {
			t.Errorf("Resolve(%q) should fail", expr)
		}
	}

	if _, err := Resolve(Statement{Kind: StatementKind(9)}, resolver); err == nil {
		t.Error("unknown statement kind should fail")
	}
}

// TestFormatRoundTrip parses back what the CLI and odserve print for
// canonical and list ODs: canonical.OD.NamesString and listod.OD.Names.
func TestFormatRoundTrip(t *testing.T) {
	names := []string{"yr", "posit", "bin", "sal"}
	resolver := func(name string) int {
		for i, c := range names {
			if c == name {
				return i
			}
		}
		return -1
	}

	canons := []canonical.OD{
		canonical.NewConstancy(bitset.NewAttrSet(0, 1), 2),
		canonical.NewConstancy(bitset.AttrSet(0), 3),
		canonical.NewOrderCompatible(bitset.NewAttrSet(0), 2, 3),
	}
	for _, od := range canons {
		text := od.NamesString(names)
		st, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		r, err := Resolve(st, resolver)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", text, err)
		}
		if !r.Canonical.Equal(od) {
			t.Errorf("round trip of %v through %q gave %v", od, text, r.Canonical)
		}
	}
	// An out-of-range attribute falls back to a positional name, which
	// parses as a name too.
	if got := canonical.NewConstancy(bitset.AttrSet(0), 9).NamesString(names); got != "{}: [] -> #9" {
		t.Errorf("NamesString fallback = %q", got)
	} else if st, err := Parse(got); err != nil || st.A != "#9" {
		t.Errorf("Parse(%q) = %+v, %v", got, st, err)
	}

	lists := []listod.OD{
		{Left: listod.Spec{3}, Right: listod.Spec{0, 2}},
		{Left: listod.Spec{0, 3}, Right: listod.Spec{1}},
	}
	for _, od := range lists {
		text := od.Names(names)
		st, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		r, err := Resolve(st, resolver)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", text, err)
		}
		if !slices.Equal(r.Left, od.Left) || !slices.Equal(r.Right, od.Right) {
			t.Errorf("round trip of %v through %q gave %v -> %v", od, text, r.Left, r.Right)
		}
	}
}
