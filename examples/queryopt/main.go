// Command queryopt reproduces the query-optimization motivation of the
// paper's introduction (Query 1 over a TPC-DS-style schema): it discovers ODs
// on a date dimension table and shows how they justify eliminating joins and
// sorts.
//
// The two rewrites motivated in Section 1.1 are:
//
//  1. d_date_sk orders d_year: a "between" predicate on d_year can be
//     rewritten into a range over the surrogate key d_date_sk, removing the
//     fact-to-dimension join.
//  2. d_month orders d_quarter: an ORDER BY d_year, d_quarter, d_month can be
//     satisfied by an index on (d_year, d_month), removing a sort.
package main

import (
	"context"
	"fmt"
	"log"

	fastod "repro"
)

func main() {
	ds := fastod.DateDimExample(3 * 365) // three years of days
	fmt.Printf("Dataset %q: %d tuples, %d attributes: %v\n\n",
		ds.Name(), ds.NumRows(), ds.NumCols(), ds.ColumnNames())

	rep, err := ds.Run(context.Background(), fastod.Request{})
	if err != nil {
		log.Fatalf("discover: %v", err)
	}
	res := rep.FASTOD
	names := ds.ColumnNames()
	fmt.Printf("Discovered %s canonical ODs in %v.\n\n", res.Counts, rep.Elapsed)

	cover := fastod.NewCover(res.ODs)
	idx := func(name string) int { return ds.ColumnIndex(name) }

	// Rewrite 1: join elimination. The surrogate key orders the year, so
	// "d_year BETWEEN 2012 AND 2014" becomes a range over d_date_sk.
	skOrdersYear := cover.Implies(fastod.NewConstancyOD([]int{idx("d_date_sk")}, idx("d_year"))) &&
		cover.Implies(fastod.NewOrderCompatibleOD(nil, idx("d_date_sk"), idx("d_year")))
	fmt.Println("Rewrite 1 — join elimination (Query 1's BETWEEN on d_year):")
	fmt.Printf("  d_date_sk orders d_year: %v\n", skOrdersYear)
	if skOrdersYear {
		fmt.Println("  => the BETWEEN predicate on d_year can be restated as a range over the")
		fmt.Println("     surrogate key with two dimension-table probes; the join is eliminated.")
	}

	// Rewrite 2: sort elimination. d_month orders d_quarter, so the ORDER BY
	// d_year, d_quarter, d_month collapses to d_year, d_month.
	monthOrdersQuarter, err := ds.CheckListOD([]string{"d_month"}, []string{"d_quarter"})
	if err != nil {
		log.Fatalf("check: %v", err)
	}
	fmt.Println("\nRewrite 2 — sort/order-by simplification:")
	fmt.Printf("  d_month orders d_quarter: %v\n", monthOrdersQuarter)
	if monthOrdersQuarter {
		fmt.Println("  => ORDER BY d_year, d_quarter, d_month  ≡  ORDER BY d_year, d_month,")
		fmt.Println("     which matches an index on (d_year, d_month); the sort is eliminated.")
	}

	// A constant attribute (d_version) also enables removing it from GROUP BY
	// and ORDER BY clauses entirely.
	constVersion := cover.Implies(fastod.NewConstancyOD(nil, idx("d_version")))
	fmt.Println("\nConstant attribute detection:")
	fmt.Printf("  {}: [] -> d_version: %v (constant columns drop out of GROUP BY / ORDER BY)\n", constVersion)

	// Show the canonical ODs with the smallest contexts: these are the most
	// broadly applicable rewrites.
	fmt.Println("\nCanonical ODs with empty or singleton contexts (most useful for optimization):")
	for _, od := range res.ODs {
		if od.Context.Len() <= 1 {
			fmt.Printf("  %s\n", od.NamesString(names))
		}
	}
}
