// Command quickstart discovers order dependencies on Table 1 of the paper
// (the employee salary/tax relation) and prints the complete, minimal set of
// canonical ODs, reproducing the paper's running example (Examples 1 and 4).
package main

import (
	"context"
	"fmt"
	"log"

	fastod "repro"
)

func main() {
	ds := fastod.EmployeesExample()
	fmt.Printf("Dataset %q: %d tuples, %d attributes: %v\n\n",
		ds.Name(), ds.NumRows(), ds.NumCols(), ds.ColumnNames())

	// Every algorithm runs through the unified Run API; the budget keeps
	// even a pathological input from running away, returning a partial
	// report instead.
	rep, err := ds.Run(context.Background(), fastod.Request{
		Algorithm:  fastod.AlgorithmFASTOD,
		RunOptions: fastod.RunOptions{Budget: fastod.DefaultBudget()},
	})
	if err != nil {
		log.Fatalf("discover: %v", err)
	}
	if rep.Interrupted {
		log.Printf("run interrupted after %d nodes — results are partial", rep.Stats.NodesVisited)
	}
	res := rep.FASTOD

	names := ds.ColumnNames()
	fmt.Printf("Discovered %s canonical ODs in %v:\n", res.Counts, rep.Elapsed)
	fmt.Println("\nConstancy ODs (the FD fragment, X: [] -> A):")
	for _, od := range res.ConstancyODs() {
		fmt.Printf("  %s\n", od.NamesString(names))
	}
	fmt.Println("\nOrder-compatibility ODs (X: A ~ B):")
	for _, od := range res.OrderCompatibleODs() {
		fmt.Printf("  %s\n", od.NamesString(names))
	}

	// The paper's Example 1 list-based ODs are all consequences of the
	// discovered canonical set (Theorem 5).
	fmt.Println("\nChecking the paper's Example 1 list-based ODs:")
	examples := [][2][]string{
		{{"sal"}, {"tax"}},
		{{"sal"}, {"perc"}},
		{{"sal"}, {"grp", "subg"}},
		{{"yr", "sal"}, {"yr", "bin"}},
	}
	for _, e := range examples {
		holds, err := ds.CheckListOD(e[0], e[1])
		if err != nil {
			log.Fatalf("check: %v", err)
		}
		fmt.Printf("  %v orders %v : %v\n", e[0], e[1], holds)
	}

	// And a violated one: position does not order salary (Example 3 splits).
	holds, err := ds.CheckListOD([]string{"posit"}, []string{"sal"})
	if err != nil {
		log.Fatalf("check: %v", err)
	}
	fmt.Printf("  [posit] orders [sal] : %v (violated by splits, as in Example 3)\n", holds)
}
