// Command dataquality demonstrates the data-cleaning use of order
// dependencies described in the paper's introduction: ODs express business
// rules (tax grows with salary, surrogate keys grow with time), and rows that
// violate previously holding ODs point at likely data errors.
//
// The example discovers ODs on a clean date-dimension table, injects a few
// value swaps into the d_year column, and then reports exactly which rows
// break which dependencies — the split/swap witnesses of Definitions 4 and 5.
package main

import (
	"context"
	"fmt"
	"log"

	fastod "repro"
)

func main() {
	clean := fastod.DateDimExample(2 * 365)
	fmt.Printf("Clean dataset %q: %d tuples, %d attributes.\n", clean.Name(), clean.NumRows(), clean.NumCols())

	rep, err := clean.Run(context.Background(), fastod.Request{})
	if err != nil {
		log.Fatalf("discover: %v", err)
	}
	res := rep.FASTOD
	fmt.Printf("Discovered %s canonical ODs on the clean data.\n\n", res.Counts)

	// Keep the business rules with small contexts: they are the most
	// meaningful constraints to monitor.
	var rules []fastod.OD
	for _, od := range res.ODs {
		if od.Context.Len() <= 1 {
			rules = append(rules, od)
		}
	}
	fmt.Printf("Monitoring %d ODs with empty or singleton contexts as business rules.\n\n", len(rules))

	// Simulate data corruption: swap a handful of d_year values between rows.
	dirty, affected, err := clean.WithSwapViolations("d_year", 3, 42)
	if err != nil {
		log.Fatalf("inject: %v", err)
	}
	fmt.Printf("Injected value swaps into column d_year affecting rows %v.\n\n", affected)

	names := dirty.ColumnNames()
	violated := 0
	for _, rule := range rules {
		v, found, err := dirty.FindViolation(rule)
		if err != nil {
			log.Fatalf("check: %v", err)
		}
		if !found {
			continue
		}
		violated++
		kind := "split (functional violation)"
		if v.IsSwap {
			kind = "swap (order violation)"
		}
		fmt.Printf("VIOLATED %-45s %s between rows %d and %d\n",
			rule.NamesString(names), kind, v.RowS, v.RowT)
	}
	if violated == 0 {
		fmt.Println("No monitored OD was violated — try more injected errors.")
		return
	}
	fmt.Printf("\n%d of %d monitored ODs are violated by the corrupted data.\n", violated, len(rules))
	fmt.Println("The witness rows above are the candidates for manual repair.")
}
