// Mailinglist: cleaning a sparse mailing list (the paper's uis workload),
// demonstrating why recall depends on repeated patterns and how negative-
// pattern enrichment (Section 7.1) recovers some of it.
//
// Run with: go run ./examples/mailinglist [-rows 15000]
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
	rows := flag.Int("rows", 15000, "uis rows to generate (paper: 15000)")
	flag.Parse()

	// uis: most persons appear once, so most errors are undetectable by
	// any FD-based method — the paper measures recall below 8% here.
	d := gen.UIS(*rows, 1)
	fmt.Printf("generated %s: %d rows x %d attributes\n",
		d.Name, d.Rel.Len(), d.Rel.Schema().Arity())

	dirty, errs, err := gen.Corrupt(d.Rel, d.NoiseAttrs, 0.10, 0.5, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injected %d errors; %d violated FD groups are visible\n",
		len(errs), fixrule.FDViolationCount(dirty, d.FDs))

	// Mine rules. With a sparse mailing list only a couple hundred
	// violations surface (the paper used 100 uis rules).
	rules, err := fixrule.MineRules(d.Rel, dirty, d.FDs, 100, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined %d fixing rules\n", rules.Len())

	repairer, err := fixrule.NewRepairer(rules)
	if err != nil {
		log.Fatal(err)
	}
	parallel := fixrule.RelationOptions{Workers: runtime.GOMAXPROCS(0)}
	base := fixrule.Evaluate(d.Rel, dirty,
		repairer.RepairRelation(dirty, fixrule.Linear, parallel).Relation)
	fmt.Println("mined rules:", base)

	// Why is recall so low? An error is detectable only when its tuple
	// shares an FD group with another tuple; in a mailing list almost
	// every person appears once, so most errors live in singleton groups
	// that no FD-based method — fixing rules or baselines — can even see.
	// This reproduces the paper's Figure 10(f) observation (recall below
	// 8% for every method on uis).
	detectable := 0
	for _, e := range errs {
		if errorDetectable(d, e) {
			detectable++
		}
	}
	fmt.Printf("only %d of %d errors are detectable by any FD-based method (%.1f%%)\n",
		detectable, len(errs), 100*float64(detectable)/float64(len(errs)))

	// More rules recover more of the detectable errors (Figure 10(g)).
	fmt.Println("\nrecall vs rule budget:")
	for _, budget := range []int{20, 40, 60, 80, 100} {
		sub, err := fixrule.MineRules(d.Rel, dirty, d.FDs, budget, 3)
		if err != nil {
			log.Fatal(err)
		}
		r, err := fixrule.NewRepairer(sub)
		if err != nil {
			log.Fatal(err)
		}
		s := fixrule.Evaluate(d.Rel, dirty,
			r.RepairRelation(dirty, fixrule.Linear, parallel).Relation)
		fmt.Printf("  %3d rules: recall %.4f at precision %.4f\n",
			sub.Len(), s.Recall, s.Precision)
	}

	// Export the ruleset in both formats for later runs with cmd/fixrepair.
	dsl := fixrule.FormatRules(rules)
	fmt.Printf("\nDSL export is %d bytes; first rule:\n", len(dsl))
	fmt.Println(rules.Rules()[0])
	if _, err := fixrule.MarshalRulesJSON(rules); err != nil {
		log.Fatal(err)
	}
	fmt.Println("JSON export OK")
}

// errorDetectable reports whether the corrupted cell lives in an FD group
// with at least one other tuple, for some FD whose RHS covers the
// attribute. Only such errors can surface as violations.
func errorDetectable(d *gen.Dataset, e gen.NoiseError) bool {
	for _, f := range d.FDs {
		covered := false
		for _, a := range f.RHS() {
			if a == e.Cell.Attr {
				covered = true
				break
			}
		}
		if !covered {
			continue
		}
		if groupSize(d.Rel, f.LHS(), e.Cell.Row) >= 2 {
			return true
		}
	}
	return false
}

// groupSize counts clean tuples agreeing with row on the given attributes.
func groupSize(rel *fixrule.Relation, attrs []string, row int) int {
	n := 0
	for i := 0; i < rel.Len(); i++ {
		same := true
		for _, a := range attrs {
			if rel.Get(i, a) != rel.Get(row, a) {
				same = false
				break
			}
		}
		if same {
			n++
		}
	}
	return n
}
