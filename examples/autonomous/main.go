// Autonomous: the paper's Section 8 end-state with no human input at all.
//
// The paper's pipeline needs two manual ingredients: known FDs ("we
// started with known dependencies") and an expert who certifies seed rules.
// This example removes both. From nothing but a dirty relation it:
//
//  1. discovers approximate FDs (TANE-style levelwise search, g3 error
//     tolerance around the suspected noise rate),
//  2. discovers fixing rules from their violation groups (majority voting
//     with support/confidence/deviation filters standing in for the
//     expert),
//  3. checks and repairs — and only then peeks at the withheld ground
//     truth to score the result.
//
// Run with: go run ./examples/autonomous [-rows 10000]
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"

	"fixrule"
	"fixrule/gen"
)

func main() {
	rows := flag.Int("rows", 10000, "hosp rows to generate")
	flag.Parse()

	// The only inputs: a dirty relation (and, hidden from the pipeline,
	// the ground truth used for scoring at the end).
	d := gen.Hosp(*rows, 1)
	dirty, errs, err := gen.Corrupt(d.Rel, d.NoiseAttrs, 0.10, 0.5, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input: %d dirty rows (%d hidden errors), no FDs, no expert\n",
		dirty.Len(), len(errs))

	// Step 1: discover approximate FDs from the dirty data itself.
	fds, err := fixrule.DiscoverFDs(dirty, 1, 0.15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstep 1: discovered %d (merged) approximate FDs:\n", len(fds))
	for _, f := range fds {
		fmt.Println("  ", f)
	}

	// Step 2: discover fixing rules from the FDs' violation groups.
	rules, err := fixrule.DiscoverRules(dirty, fds, fixrule.DiscoverOptions{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstep 2: discovered %d consistent fixing rules", rules.Len())
	if rules.Len() > 0 {
		fmt.Printf("; e.g. %v", rules.Rules()[0])
	}
	fmt.Println()

	// Step 3: repair.
	repairer, err := fixrule.NewRepairer(rules)
	if err != nil {
		log.Fatal(err)
	}
	parallel := fixrule.RelationOptions{Workers: runtime.GOMAXPROCS(0)}
	res := repairer.RepairRelation(dirty, fixrule.Linear, parallel)
	fmt.Printf("\nstep 3: applied %d repairs\n", res.Steps)

	// Scoring (the pipeline never saw d.Rel until here).
	s := fixrule.Evaluate(d.Rel, dirty, res.Relation)
	fmt.Println("\nscored against the withheld ground truth:")
	fmt.Println("  ", s)

	// For contrast: the supervised pipeline (paper FDs + ground-truth
	// expert) on the same data.
	expert, err := fixrule.MineRules(d.Rel, dirty, d.FDs, 0, 3)
	if err != nil {
		log.Fatal(err)
	}
	repairer2, err := fixrule.NewRepairer(expert)
	if err != nil {
		log.Fatal(err)
	}
	s2 := fixrule.Evaluate(d.Rel, dirty,
		repairer2.RepairRelation(dirty, fixrule.Linear, parallel).Relation)
	fmt.Println("supervised pipeline on the same data (for contrast):")
	fmt.Println("  ", s2)
}
