// Package datagen produces the relation instances used by the examples,
// tests and benchmarks. The paper evaluates FASTOD on four datasets (flight,
// ncvoter, hepatitis, dbtesma) that are not redistributable here, so this
// package provides synthetic stand-ins that reproduce the *dependency
// structure* those datasets exhibit — constants, functional-dependency
// hierarchies, order-compatible (monotone) column families, keys and noise —
// which is what determines both algorithm runtime and the number and kind of
// discovered ODs.
//
// All generators are deterministic for a given seed.
package datagen

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/relation"
)

// ColumnKind describes how a synthetic column is derived.
type ColumnKind int

// Supported synthetic column kinds.
const (
	// KindConstant produces a single repeated value (e.g. flight's year=2012).
	KindConstant ColumnKind = iota
	// KindSequential produces a strictly increasing value per row (a key,
	// e.g. a surrogate key such as d_date_sk).
	KindSequential
	// KindRandom produces uniform random integers over a bounded domain.
	KindRandom
	// KindDerivedFD produces a deterministic function of a source column:
	// the FD source → column holds by construction.
	KindDerivedFD
	// KindMonotone produces a non-decreasing coarsening of a hidden driver
	// column: every pair of such columns over the same driver is order
	// compatible, but neither functionally determines the other unless the
	// granularities divide evenly.
	KindMonotone
)

// ColumnSpec configures a single synthetic column.
type ColumnSpec struct {
	Name string
	Kind ColumnKind
	// Domain bounds the number of distinct values (KindRandom, KindDerivedFD)
	// or the bucket width of the driver coarsening (KindMonotone).
	Domain int
	// Source is the index of the source column (KindDerivedFD) or of the
	// hidden driver (KindMonotone).
	Source int
	// Value is the constant value for KindConstant.
	Value int
}

// Spec configures a full synthetic relation.
type Spec struct {
	Name string
	Rows int
	Seed int64
	// Drivers is the number of hidden monotone driver sequences available to
	// KindMonotone columns (referenced by ColumnSpec.Source).
	Drivers int
	Columns []ColumnSpec
}

// Generate materializes a relation from a spec. Column values are emitted as
// decimal strings and typed as integers, which keeps rank encoding exact.
func Generate(spec Spec) (*relation.Relation, error) {
	if spec.Rows < 0 {
		return nil, fmt.Errorf("datagen: negative row count %d", spec.Rows)
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// Hidden drivers: strictly increasing sequences with random step sizes,
	// shared by the monotone columns that reference them.
	drivers := make([][]int, spec.Drivers)
	for d := range drivers {
		drivers[d] = make([]int, spec.Rows)
		cur := 0
		for i := 0; i < spec.Rows; i++ {
			cur += 1 + rng.Intn(3)
			drivers[d][i] = cur
		}
	}

	cols := make([][]int, len(spec.Columns))
	for ci, cs := range spec.Columns {
		vals := make([]int, spec.Rows)
		switch cs.Kind {
		case KindConstant:
			for i := range vals {
				vals[i] = cs.Value
			}
		case KindSequential:
			for i := range vals {
				vals[i] = i + 1
			}
		case KindRandom:
			domain := cs.Domain
			if domain < 1 {
				domain = 2
			}
			for i := range vals {
				vals[i] = rng.Intn(domain)
			}
		case KindDerivedFD:
			if cs.Source < 0 || cs.Source >= ci {
				return nil, fmt.Errorf("datagen: column %q: derived source %d must precede column %d", cs.Name, cs.Source, ci)
			}
			domain := cs.Domain
			if domain < 1 {
				domain = 2
			}
			src := cols[cs.Source]
			for i := range vals {
				// A fixed mixing function keeps the mapping deterministic per
				// source value, so the FD source → column holds exactly.
				v := src[i]
				vals[i] = ((v*2654435761 + 40503) >> 4) % domain
				if vals[i] < 0 {
					vals[i] = -vals[i]
				}
			}
		case KindMonotone:
			if cs.Source < 0 || cs.Source >= len(drivers) {
				return nil, fmt.Errorf("datagen: column %q: driver %d out of range (have %d drivers)", cs.Name, cs.Source, len(drivers))
			}
			width := cs.Domain
			if width < 1 {
				width = 1
			}
			for i := range vals {
				vals[i] = drivers[cs.Source][i] / width
			}
		default:
			return nil, fmt.Errorf("datagen: column %q: unknown kind %d", cs.Name, cs.Kind)
		}
		cols[ci] = vals
	}

	columns := make([]relation.Column, len(spec.Columns))
	for ci, cs := range spec.Columns {
		raw := make([]string, spec.Rows)
		for i, v := range cols[ci] {
			raw[i] = strconv.Itoa(v)
		}
		columns[ci] = relation.NewColumn(cs.Name, relation.TypeInt, raw)
	}
	r := relation.New(spec.Name, columns...)
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// MustGenerate is Generate for specs known to be valid at compile time; it
// panics on error and is intended for the preset constructors below. Callers
// holding a runtime spec must use Generate and handle the error instead —
// this helper exists only where a failure is a bug in the preset itself, and
// its panic message names the spec so the recovered stack (see
// lattice.PanicError) identifies which one.
func MustGenerate(spec Spec) *relation.Relation {
	r, err := Generate(spec)
	if err != nil {
		panic(fmt.Sprintf("datagen: preset spec %q: %v", spec.Name, err))
	}
	return r
}

// clampCols bounds the requested column count to [1, 64].
func clampCols(cols int) int {
	if cols < 1 {
		cols = 1
	}
	if cols > 64 {
		cols = 64
	}
	return cols
}

// FlightLike builds a stand-in for the HPI flight dataset: a constant year
// column (all flights from 2012, Section 5.3), a surrogate-key column, FD
// hierarchies (e.g. airport → city → state) and a family of schedule-time
// columns that are order compatible with one another. FD-flavoured ODs
// dominate at small column counts and order-compatible ODs appear as more
// schedule columns are included, matching the counts reported in Figure 5.
func FlightLike(rows, cols int, seed int64) *relation.Relation {
	cols = clampCols(cols)
	spec := Spec{Name: "flight-like", Rows: rows, Seed: seed, Drivers: 2}
	for i := 0; i < cols; i++ {
		var cs ColumnSpec
		switch {
		case i == 0:
			cs = ColumnSpec{Name: "year", Kind: KindConstant, Value: 2012}
		case i == 1:
			cs = ColumnSpec{Name: "flight_sk", Kind: KindSequential}
		case i%5 == 2:
			cs = ColumnSpec{Name: name("carrier", i), Kind: KindRandom, Domain: 8 + i}
		case i%5 == 3:
			cs = ColumnSpec{Name: name("carrier_name", i), Kind: KindDerivedFD, Source: i - 1, Domain: 6 + i/2}
		case i%5 == 4:
			cs = ColumnSpec{Name: name("dep_time", i), Kind: KindMonotone, Source: 0, Domain: 2 + i%7}
		case i%5 == 0:
			cs = ColumnSpec{Name: name("arr_time", i), Kind: KindMonotone, Source: 1, Domain: 3 + i%5}
		default:
			cs = ColumnSpec{Name: name("attr", i), Kind: KindRandom, Domain: 20 + i}
		}
		spec.Columns = append(spec.Columns, cs)
	}
	return MustGenerate(spec)
}

// NCVoterLike builds a stand-in for the ncvoter dataset: mostly
// high-cardinality personal attributes with very few functional dependencies
// but many order-compatible column pairs (registration dates, age-derived
// fields), which makes order-compatibility ODs dominate the result as in the
// paper's ncvoter numbers (e.g. 77 = 4 FDs + 73 OCDs at 10 attributes).
func NCVoterLike(rows, cols int, seed int64) *relation.Relation {
	cols = clampCols(cols)
	spec := Spec{Name: "ncvoter-like", Rows: rows, Seed: seed, Drivers: 3}
	for i := 0; i < cols; i++ {
		var cs ColumnSpec
		switch {
		case i == 0:
			cs = ColumnSpec{Name: "voter_id", Kind: KindSequential}
		case i%3 == 1:
			cs = ColumnSpec{Name: name("reg_date", i), Kind: KindMonotone, Source: i % 3, Domain: 2 + i%6}
		case i%3 == 2:
			cs = ColumnSpec{Name: name("age_band", i), Kind: KindMonotone, Source: (i + 1) % 3, Domain: 3 + i%5}
		default:
			cs = ColumnSpec{Name: name("name", i), Kind: KindRandom, Domain: rows/2 + 2}
		}
		spec.Columns = append(spec.Columns, cs)
	}
	return MustGenerate(spec)
}

// HepatitisLike builds a stand-in for the UCI hepatitis dataset: very few
// rows (155 in the paper) and tiny categorical domains, which yields hundreds
// of ODs because small contexts already make most attributes constant.
func HepatitisLike(rows, cols int, seed int64) *relation.Relation {
	cols = clampCols(cols)
	if rows <= 0 {
		rows = 155
	}
	spec := Spec{Name: "hepatitis-like", Rows: rows, Seed: seed, Drivers: 1}
	for i := 0; i < cols; i++ {
		var cs ColumnSpec
		switch {
		case i%7 == 6:
			cs = ColumnSpec{Name: name("age", i), Kind: KindMonotone, Source: 0, Domain: 5}
		case i%4 == 3:
			cs = ColumnSpec{Name: name("derived", i), Kind: KindDerivedFD, Source: i - 1, Domain: 2}
		default:
			cs = ColumnSpec{Name: name("flag", i), Kind: KindRandom, Domain: 2 + i%3}
		}
		spec.Columns = append(spec.Columns, cs)
	}
	return MustGenerate(spec)
}

// DBTesmaLike builds a stand-in for the dbtesma generator output: a synthetic
// benchmark table rich in functional dependencies (generated hierarchies) with
// almost no order-compatible pairs, matching the paper's counts where nearly
// all discovered ODs are FD-flavoured (e.g. 3,133 = 3,120 FDs + 13 OCDs).
func DBTesmaLike(rows, cols int, seed int64) *relation.Relation {
	cols = clampCols(cols)
	spec := Spec{Name: "dbtesma-like", Rows: rows, Seed: seed, Drivers: 1}
	for i := 0; i < cols; i++ {
		var cs ColumnSpec
		switch {
		case i == 0:
			cs = ColumnSpec{Name: "pk", Kind: KindSequential}
		case i%2 == 1:
			cs = ColumnSpec{Name: name("dim", i), Kind: KindRandom, Domain: 12 + 3*i}
		default:
			cs = ColumnSpec{Name: name("dim_attr", i), Kind: KindDerivedFD, Source: i - 1, Domain: 4 + i}
		}
		spec.Columns = append(spec.Columns, cs)
	}
	return MustGenerate(spec)
}

func name(prefix string, i int) string { return prefix + "_" + strconv.Itoa(i) }
