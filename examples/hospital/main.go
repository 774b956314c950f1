// Hospital: an end-to-end cleaning pipeline on the paper's hosp workload.
//
// The pipeline mirrors Section 7: generate the hospital dataset, corrupt
// 10% of the tuples (half typos, half active-domain errors), mine fixing
// rules from the FD violations, verify their consistency, repair with
// lRepair, and score the repair against ground truth.
//
// Run with: go run ./examples/hospital [-rows 20000]
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"fixrule"
	"fixrule/gen"
)

func main() {
	rows := flag.Int("rows", 20000, "hosp rows to generate (paper: 115000)")
	flag.Parse()

	// 1. Ground truth: a clean hospital relation satisfying the five FDs
	// of Section 7.1.
	d := gen.Hosp(*rows, 1)
	fmt.Printf("generated %s: %d rows x %d attributes, %d FDs\n",
		d.Name, d.Rel.Len(), d.Rel.Schema().Arity(), len(d.FDs))
	for _, f := range d.FDs {
		fmt.Println("  FD:", f)
	}

	// 2. Dirty copy: the paper's noise model.
	dirty, errs, err := gen.Corrupt(d.Rel, d.NoiseAttrs, 0.10, 0.5, 2)
	if err != nil {
		log.Fatal(err)
	}
	typos := 0
	for _, e := range errs {
		if e.Typo {
			typos++
		}
	}
	fmt.Printf("injected %d errors (%d typos, %d active-domain)\n",
		len(errs), typos, len(errs)-typos)
	fmt.Printf("dirty data has %d violated FD groups\n",
		fixrule.FDViolationCount(dirty, d.FDs))

	// 3. Mine fixing rules from FD violations (Section 7.1's rule
	// generation, with ground truth standing in for the expert).
	start := time.Now()
	rules, err := fixrule.MineRules(d.Rel, dirty, d.FDs, 1000, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined %d consistent fixing rules in %v (size(Σ) = %d)\n",
		rules.Len(), time.Since(start), rules.Size())
	if sample := rules.Rules(); len(sample) > 0 {
		fmt.Println("  sample rule:", sample[0])
	}

	// 4. Repair with both algorithms and compare.
	repairer, err := fixrule.NewRepairer(rules)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	parallel := fixrule.RelationOptions{Workers: runtime.GOMAXPROCS(0)}
	resLinear := repairer.RepairRelation(dirty, fixrule.Linear, parallel)
	tLinear := time.Since(start)
	start = time.Now()
	resChase := repairer.RepairRelation(dirty, fixrule.Chase)
	tChase := time.Since(start)
	fmt.Printf("lRepair: %d repairs in %v; cRepair: %d repairs in %v\n",
		resLinear.Steps, tLinear, resChase.Steps, tChase)

	// 5. Score against ground truth (the paper's precision/recall).
	s := fixrule.Evaluate(d.Rel, dirty, resLinear.Relation)
	fmt.Println("lRepair accuracy:", s)

	// 6. Show a few concrete repairs.
	shown := 0
	for _, c := range resLinear.Changed {
		if shown >= 5 {
			break
		}
		fmt.Printf("  row %d %s: %q -> %q (truth %q)\n",
			c.Row, c.Attr, dirty.Get(c.Row, c.Attr),
			resLinear.Relation.Get(c.Row, c.Attr), d.Rel.Get(c.Row, c.Attr))
		shown++
	}

	// 7. Enrichment and generalisation (Section 7.1): enlarging negative
	// patterns from domain tables does not change anything on the data the
	// rules were mined from (every confirmable wrong value is already a
	// negative pattern), but it lets the same rules catch FRESH errors in
	// new data — the paper notes enriched rules "can be applied to
	// multiple databases".
	enriched, err := fixrule.EnrichRules(rules, d.Rel, 25, 4)
	if err != nil {
		log.Fatal(err)
	}
	dirty2, errs2, err := gen.Corrupt(d.Rel, d.NoiseAttrs, 0.10, 0.5, 99)
	if err != nil {
		log.Fatal(err)
	}
	repairRich, err := fixrule.NewRepairer(enriched)
	if err != nil {
		log.Fatal(err)
	}
	onNewBase := fixrule.Evaluate(d.Rel, dirty2,
		repairer.RepairRelation(dirty2, fixrule.Linear, parallel).Relation)
	onNewRich := fixrule.Evaluate(d.Rel, dirty2,
		repairRich.RepairRelation(dirty2, fixrule.Linear, parallel).Relation)
	fmt.Printf("\ngeneralisation to a second dirty copy (%d fresh errors):\n", len(errs2))
	fmt.Println("  mined rules:   ", onNewBase)
	fmt.Println("  enriched rules:", onNewRich)
}
