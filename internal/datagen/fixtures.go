package datagen

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/relation"
)

// Employees returns Table 1 of the paper: the employee salary/tax relation
// used as the running example. Column order matches the paper:
// ID, yr, posit, bin, sal, perc, tax, grp, subg.
func Employees() *relation.Relation {
	header := []string{"ID", "yr", "posit", "bin", "sal", "perc", "tax", "grp", "subg"}
	rows := [][]string{
		{"10", "16", "secr", "1", "5000", "20", "1000", "A", "III"},
		{"11", "16", "mngr", "2", "8000", "25", "2000", "C", "II"},
		{"12", "16", "direct", "3", "10000", "30", "3000", "D", "I"},
		{"10", "15", "secr", "1", "4500", "20", "900", "A", "III"},
		{"11", "15", "mngr", "2", "6000", "25", "1500", "C", "I"},
		{"12", "15", "direct", "3", "8000", "25", "2000", "C", "II"},
	}
	r, err := relation.FromRows("employees", header, rows)
	if err != nil {
		panic(fmt.Sprintf("datagen: employees fixture: %v", err))
	}
	// Roman-numeral subgroups must order I < II < III; lexicographic order
	// happens to agree (I < II < III), so string typing is fine. Grades A < C < D
	// likewise. Nothing to adjust, but keep the check close to the data.
	return r
}

// DateDim returns a TPC-DS-style date dimension used by the query
// optimization example (Query 1 in the paper's introduction): a surrogate key
// d_date_sk assigned in chronological order plus calendar attributes. By
// construction the ODs d_date_sk ↦ d_date, d_date_sk ↦ d_year,
// d_month_seq ↦ d_quarter_seq and the constancy of d_version hold.
func DateDim(days int) *relation.Relation {
	if days <= 0 {
		days = 365
	}
	header := []string{"d_date_sk", "d_date", "d_year", "d_quarter", "d_month", "d_week", "d_day", "d_version"}
	rows := make([][]string, days)
	for i := 0; i < days; i++ {
		dayOfYear := i % 365
		year := 2012 + i/365
		month := dayOfYear/31 + 1
		quarter := (month-1)/3 + 1
		week := dayOfYear/7 + 1
		day := dayOfYear%31 + 1
		rows[i] = []string{
			strconv.Itoa(2450000 + i),
			fmt.Sprintf("%04d-%02d-%02d", year, month, day%28+1),
			strconv.Itoa(year),
			strconv.Itoa(quarter),
			strconv.Itoa(month),
			strconv.Itoa(week),
			strconv.Itoa(day),
			"1",
		}
	}
	r, err := relation.FromRows("date_dim", header, rows)
	if err != nil {
		panic(fmt.Sprintf("datagen: date_dim fixture: %v", err))
	}
	return r
}

// InjectSwapViolations returns a copy of the relation in which n pairs of
// values of column col have been swapped between rows, creating order
// violations (swaps and possibly splits) that the data-quality example
// detects. The second return value lists the affected row indexes.
func InjectSwapViolations(r *relation.Relation, colName string, n int, seed int64) (*relation.Relation, []int, error) {
	ci := r.ColumnIndex(colName)
	if ci < 0 {
		return nil, nil, fmt.Errorf("datagen: column %q not found", colName)
	}
	out, err := r.Project(identity(r.NumCols()))
	if err != nil {
		return nil, nil, err
	}
	out.Name = r.Name + "-dirty"
	rng := rand.New(rand.NewSource(seed))
	affected := make([]int, 0, 2*n)
	rows := out.NumRows()
	if rows < 2 {
		return out, nil, nil
	}
	for k := 0; k < n; k++ {
		i := rng.Intn(rows)
		j := rng.Intn(rows)
		if i == j {
			j = (j + 1) % rows
		}
		ids := out.Columns[ci].IDs
		ids[i], ids[j] = ids[j], ids[i]
		affected = append(affected, i, j)
	}
	return out, affected, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// RandomRelation builds a small relation with uniformly random values over a
// bounded domain. It backs the property-based tests that compare FASTOD
// against brute-force discovery: small domains make dependencies likely
// enough to exercise every code path.
func RandomRelation(rows, cols, domain int, seed int64) *relation.Relation {
	if domain < 1 {
		domain = 1
	}
	spec := Spec{Name: "random", Rows: rows, Seed: seed, Drivers: 1}
	for i := 0; i < clampCols(cols); i++ {
		spec.Columns = append(spec.Columns, ColumnSpec{
			Name: name("c", i), Kind: KindRandom, Domain: domain,
		})
	}
	return MustGenerate(spec)
}

// RandomStructuredRelation builds a small relation that mixes random,
// derived-FD and monotone columns so that randomized tests also cover
// datasets where many ODs hold.
func RandomStructuredRelation(rows, cols, domain int, seed int64) *relation.Relation {
	if domain < 1 {
		domain = 1
	}
	spec := Spec{Name: "random-structured", Rows: rows, Seed: seed, Drivers: 2}
	for i := 0; i < clampCols(cols); i++ {
		cs := ColumnSpec{Name: name("c", i), Kind: KindRandom, Domain: domain}
		switch i % 3 {
		case 1:
			if i > 0 {
				cs = ColumnSpec{Name: name("c", i), Kind: KindDerivedFD, Source: i - 1, Domain: domain}
			}
		case 2:
			cs = ColumnSpec{Name: name("c", i), Kind: KindMonotone, Source: i % 2, Domain: 1 + domain/2}
		}
		spec.Columns = append(spec.Columns, cs)
	}
	return MustGenerate(spec)
}
