// Command constraints demonstrates the extension features built on top of
// core discovery: textual OD business rules, approximate ODs (dependencies
// that almost hold, from the paper's future-work list), bidirectional ODs
// (ascending/descending mixes) and the query-optimization advisor.
package main

import (
	"context"
	"fmt"
	"log"

	fastod "repro"
)

func main() {
	// Start from the clean date dimension, then corrupt a few d_year values
	// so some dependencies only *almost* hold.
	clean := fastod.DateDimExample(2 * 365)
	dirty, affected, err := clean.WithSwapViolations("d_year", 3, 7)
	if err != nil {
		log.Fatalf("inject: %v", err)
	}
	fmt.Printf("Dataset %q with %d corrupted cells (rows %v).\n\n", dirty.Name(), len(affected), affected)

	// 1. Business rules in the textual OD syntax, checked with witnesses.
	rules := `
# calendar business rules
[d_date_sk] -> [d_date]
{}: d_date_sk ~ d_year
{d_year}: [] -> d_version
[d_month] ~ [d_week]
`
	statements, err := fastod.ParseODs(rules)
	if err != nil {
		log.Fatalf("parse: %v", err)
	}
	fmt.Println("Rule check on the corrupted data:")
	for _, st := range statements {
		check, err := dirty.CheckStatement(st)
		if err != nil {
			log.Fatalf("check: %v", err)
		}
		status := "OK    "
		detail := ""
		if !check.Holds {
			status = "FAILED"
			if check.Violation != nil {
				detail = fmt.Sprintf("  (witness rows %d, %d)", check.Violation.RowS, check.Violation.RowT)
			}
			if check.Error != nil {
				detail += fmt.Sprintf("  error=%.4f", check.Error.Rate)
			}
		}
		fmt.Printf("  %s %-28s%s\n", status, st.Source, detail)
	}

	// 2. Approximate discovery recovers the rules that almost hold.
	ctx := context.Background()
	approxRep, err := dirty.Run(ctx, fastod.Request{
		Algorithm: fastod.AlgorithmApprox,
		Approx:    fastod.ApproxRunOptions{Threshold: 0.02},
	})
	if err != nil {
		log.Fatalf("approximate discovery: %v", err)
	}
	approxRes := approxRep.Approx
	fmt.Printf("\nApproximate discovery (threshold 2%%) found %s ODs; those with non-zero error:\n", approxRes.Counts())
	shown := 0
	for _, d := range approxRes.ODs {
		if d.Error.Removals == 0 || shown >= 5 {
			continue
		}
		fmt.Printf("  %-40s error=%.4f (%d tuples to repair)\n",
			d.OD.NamesString(dirty.ColumnNames()), d.Error.Rate, d.Error.Removals)
		shown++
	}

	// 3. Bidirectional discovery on a table with opposing trends.
	rows := make([][]string, 0, 48)
	for m := 0; m < 48; m++ {
		rows = append(rows, []string{
			fmt.Sprintf("%d", 2012+m/12), // year
			fmt.Sprintf("%d", m%12+1),    // month
			fmt.Sprintf("%d", 500-3*m),   // remaining_budget (falls over time)
			fmt.Sprintf("%d", 100+2*m),   // cumulative_spend (rises over time)
		})
	}
	ledger, err := fastod.FromRows("ledger", []string{"year", "month", "remaining_budget", "cumulative_spend"}, rows)
	if err != nil {
		log.Fatalf("ledger: %v", err)
	}
	bidiRep, err := ledger.Run(ctx, fastod.Request{Algorithm: fastod.AlgorithmBidirectional})
	if err != nil {
		log.Fatalf("bidirectional discovery: %v", err)
	}
	bidi := bidiRep.Bidir
	fmt.Println("\nBidirectional ODs on the ledger (opposite polarities are invisible to unidirectional discovery):")
	for _, od := range bidi.ODs {
		if od.Kind == fastod.OrderCompatible && od.Polarity == fastod.OppositeDirection && od.Context.IsEmpty() {
			fmt.Printf("  %s\n", od.NamesString(ledger.ColumnNames()))
		}
	}

	// 4. The advisor turns clean-data ODs into query rewrites.
	rep, err := clean.Run(ctx, fastod.Request{})
	if err != nil {
		log.Fatalf("discover: %v", err)
	}
	res := rep.FASTOD
	adv := fastod.NewAdvisor(res.ODs, res.ColumnNames)
	suggestions, err := adv.Advise(fastod.AdvisorQuery{
		OrderBy:         []string{"d_year", "d_quarter", "d_month"},
		GroupBy:         []string{"d_year", "d_quarter", "d_month"},
		RangePredicates: []string{"d_year"},
		Indexes:         [][]string{{"d_date_sk"}},
	})
	if err != nil {
		log.Fatalf("advise: %v", err)
	}
	fmt.Println("\nOptimizer advice for Query 1 (ORDER BY / GROUP BY d_year, d_quarter, d_month; d_year BETWEEN ...):")
	for _, s := range suggestions {
		fmt.Printf("  [%s] %s\n", s.Kind, s.Message)
	}
}
