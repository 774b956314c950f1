// Editing: the editing-rules-with-master-data workflow (Fan et al.,
// VLDB J. 2012) that the paper compares fixing rules against, and the cost
// difference between the two — user interactions.
//
// Editing rules are guaranteed correct only because a user certifies the
// matched attributes before every application. Fixing rules encode the
// error evidence (negative patterns) inside the rule, so the same repairs
// run with zero interactions. This example measures both on the same dirty
// relation (the Figure 12 comparison at example scale).
//
// Run with: go run ./examples/editing
package main

import (
	"fmt"
	"log"
	"runtime"

	"fixrule"
	"fixrule/editing"
	"fixrule/gen"
)

func main() {
	// Clean hospital data and a dirty copy.
	d := gen.Hosp(10000, 1)
	dirty, errs, err := gen.Corrupt(d.Rel, d.NoiseAttrs, 0.10, 0.5, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hosp: %d rows, %d injected errors\n", d.Rel.Len(), len(errs))

	// Master data: the paper's Figure 2 pattern — a trusted projection.
	// Here: zip determines (city, state), so build Master(zip, city, state)
	// from the clean relation.
	master, err := editing.BuildMaster("ZipDir", d.Rel, []string{"zip", "city", "state"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("master ZipDir(zip, city, state): %d entries\n", master.Len())

	// Editing rules eR1, eR2: if t[zip] matches master s[zip], update city
	// (resp. state) from the master.
	eR1, err := editing.NewRule("eR1", d.Rel.Schema(), master.Schema(),
		map[string]string{"zip": "zip"}, "city", "city", nil)
	if err != nil {
		log.Fatal(err)
	}
	eR2, err := editing.NewRule("eR2", d.Rel.Schema(), master.Schema(),
		map[string]string{"zip": "zip"}, "state", "state", nil)
	if err != nil {
		log.Fatal(err)
	}
	engine := editing.NewEngine(d.Rel.Schema(), master, []*editing.Rule{eR1, eR2})

	// An idealised user: certifies t[zip] only when it is actually correct
	// (checked against ground truth). This is what editing rules require —
	// and what the interaction count prices.
	zipIdx := d.Rel.Schema().Index("zip")
	oracle := editing.CertifierFunc(func(row int, t fixrule.Tuple, attrs []string) bool {
		return t[zipIdx] == d.Rel.Row(row)[zipIdx]
	})
	res := engine.Repair(dirty, oracle)
	sEdit := fixrule.Evaluate(d.Rel, dirty, res.Relation)
	fmt.Printf("\nediting rules: %d user interactions, %d applications\n",
		res.Interactions, res.Applied)
	fmt.Println("editing rules accuracy:", sEdit)

	// Fixing rules on the same data: no master, no user.
	rules, err := fixrule.MineRules(d.Rel, dirty, d.FDs, 1000, 3)
	if err != nil {
		log.Fatal(err)
	}
	repairer, err := fixrule.NewRepairer(rules)
	if err != nil {
		log.Fatal(err)
	}
	fixRes := repairer.RepairRelation(dirty, fixrule.Linear, fixrule.RelationOptions{Workers: runtime.GOMAXPROCS(0)})
	sFix := fixrule.Evaluate(d.Rel, dirty, fixRes.Relation)
	fmt.Printf("\nfixing rules: 0 user interactions, %d applications\n", fixRes.Steps)
	fmt.Println("fixing rules accuracy:", sFix)

	fmt.Printf("\nsummary: editing rules bought their repairs with %d certifications;\n", res.Interactions)
	fmt.Println("fixing rules repaired automatically because negative patterns encode the error evidence.")
}
