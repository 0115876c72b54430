// Command odcheck validates a set of order dependencies — business rules
// written in the textual OD syntax — against a CSV file, reporting for each
// rule whether it holds, how badly it is violated (the fraction of tuples
// that would need to be removed), and a witness pair of rows when it fails.
// This is the data-quality workflow from the paper's introduction: discovered
// or hand-written ODs act as integrity constraints whose violations point at
// data errors.
//
// Usage:
//
//	odcheck -input data.csv -rules rules.txt [-threshold 0.01]
//
// The rules file contains one dependency per line, e.g.:
//
//	# tax rules
//	[salary] -> [tax]
//	{year}: bin ~ salary
//	{}: [] -> version
//
// Lines starting with '#' are comments. With -threshold, rules whose error is
// at most the threshold are reported as "almost holds" rather than failed.
//
// Attributes may carry per-attribute order modifiers — ASC|DESC, NULLS
// FIRST|LAST and COLLATE lexicographic|numeric|date|ci — so a rule can pin
// the ordering semantics it is checked under:
//
//	[salary DESC NULLS LAST] -> [tax DESC NULLS LAST]
//	{year}: bin ~ salary COLLATE numeric
//
// Such rules are evaluated against a re-encoding of the dataset under the
// requested orders; modifiers for the same attribute must agree across its
// occurrences within one rule.
package main

import (
	"flag"
	"fmt"
	"os"

	fastod "repro"
)

func main() {
	var (
		input     = flag.String("input", "", "path to a CSV file with a header row (required)")
		rules     = flag.String("rules", "", "path to a file of OD expressions (required)")
		threshold = flag.Float64("threshold", 0, "error tolerance in [0,1): rules within it are reported as almost holding")
	)
	flag.Parse()
	if *input == "" || *rules == "" {
		fmt.Fprintln(os.Stderr, "odcheck: -input and -rules are required")
		flag.Usage()
		os.Exit(2)
	}
	failures, err := run(os.Stdout, *input, *rules, *threshold)
	if err != nil {
		fmt.Fprintf(os.Stderr, "odcheck: %v\n", err)
		os.Exit(1)
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// run checks every rule and returns the number of rules that fail beyond the
// threshold.
func run(out *os.File, input, rulesPath string, threshold float64) (int, error) {
	if !(threshold >= 0 && threshold < 1) { // NaN fails too
		return 0, fmt.Errorf("threshold %v outside [0,1)", threshold)
	}
	ds, err := fastod.LoadCSVFile(input)
	if err != nil {
		return 0, err
	}
	raw, err := os.ReadFile(rulesPath)
	if err != nil {
		return 0, err
	}
	statements, err := fastod.ParseODs(string(raw))
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "dataset %s: %d tuples, %d attributes; checking %d rules\n",
		ds.Name(), ds.NumRows(), ds.NumCols(), len(statements))

	failures := 0
	for _, st := range statements {
		check, err := ds.CheckStatement(st)
		if err != nil {
			return 0, err
		}
		switch {
		case check.Holds:
			fmt.Fprintf(out, "OK      %s\n", st.Source)
		case check.Error != nil && check.Error.Rate <= threshold:
			fmt.Fprintf(out, "ALMOST  %s (error %.4f, %d tuples to repair)\n",
				st.Source, check.Error.Rate, check.Error.Removals)
		default:
			failures++
			detail := ""
			if check.Violation != nil {
				kind := "split"
				if check.Violation.IsSwap {
					kind = "swap"
				}
				detail = fmt.Sprintf(" [%s between rows %d and %d]", kind, check.Violation.RowS, check.Violation.RowT)
			}
			if check.Error != nil {
				detail += fmt.Sprintf(" (error %.4f)", check.Error.Rate)
			}
			fmt.Fprintf(out, "FAILED  %s%s\n", st.Source, detail)
		}
	}
	fmt.Fprintf(out, "%d of %d rules failed\n", failures, len(statements))
	return failures, nil
}
