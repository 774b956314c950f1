package experiments

import (
	"fmt"
	"runtime"
	"sort"

	"fixrule/internal/csm"
	"fixrule/internal/editrule"
	"fixrule/internal/heu"
	"fixrule/internal/metrics"
	"fixrule/internal/repair"
	"fixrule/internal/rulegen"
)

// fixScores mines a consistent ruleset (budget rules) and scores the
// lRepair result against ground truth.
func fixScores(cfg Config, w *workload, budget int) (metrics.Scores, *repair.Result, error) {
	rs, err := rulegen.MineConsistent(w.ds.Rel, w.dirty, w.ds.FDs,
		rulegen.Config{MaxRules: budget, Seed: cfg.Seed})
	if err != nil {
		return metrics.Scores{}, nil, err
	}
	rep, err := repair.NewRepairerChecked(rs)
	if err != nil {
		return metrics.Scores{}, nil, err
	}
	res := rep.RepairRelation(w.dirty, repair.Linear, repair.RelationOptions{Workers: runtime.GOMAXPROCS(0)})
	return metrics.Evaluate(w.ds.Rel, w.dirty, res.Relation), res, nil
}

// Fig10Typo reproduces Figure 10(a,b) for hosp and 10(e,f) for uis: the
// accuracy of Fix, Heu and Csm as the typo share of the noise varies from
// 0% (all active-domain errors) to 100% (all typos).
func Fig10Typo(cfg Config, ds string) ([]*Table, error) {
	if err := dsCheck(ds); err != nil {
		return nil, err
	}
	fracs := cfg.typoFracs()
	x := make([]float64, len(fracs))
	var precFix, precHeu, precCsm, recFix, recHeu, recCsm []float64

	for i, frac := range fracs {
		x[i] = frac * 100
		w, err := makeWorkload(cfg, ds, frac)
		if err != nil {
			return nil, err
		}
		sFix, _, err := fixScores(cfg, w, cfg.ruleBudget(ds))
		if err != nil {
			return nil, err
		}
		sHeu := metrics.Evaluate(w.ds.Rel, w.dirty, heu.Repair(w.dirty, w.ds.FDs, heu.Config{}))
		sCsm := metrics.Evaluate(w.ds.Rel, w.dirty, csm.Repair(w.dirty, w.ds.FDs, csm.Config{Seed: cfg.Seed}))

		precFix = append(precFix, sFix.Precision)
		precHeu = append(precHeu, sHeu.Precision)
		precCsm = append(precCsm, sCsm.Precision)
		recFix = append(recFix, sFix.Recall)
		recHeu = append(recHeu, sHeu.Recall)
		recCsm = append(recCsm, sCsm.Recall)
	}

	suffix := "(a,b)"
	if ds == "uis" {
		suffix = "(e,f)"
	}
	prec := &Table{
		ID:     "fig10-typo-precision-" + ds,
		Title:  fmt.Sprintf("Figure 10%s precision vs typo rate (%s)", suffix, ds),
		XLabel: "typo %",
		X:      x,
		Series: []Series{
			{Name: "Fix", Values: precFix},
			{Name: "Heu", Values: precHeu},
			{Name: "Csm", Values: precCsm},
		},
		Notes: []string{"paper shape: Fix flat and high; Heu/Csm rise with typo share"},
	}
	rec := &Table{
		ID:     "fig10-typo-recall-" + ds,
		Title:  fmt.Sprintf("Figure 10%s recall vs typo rate (%s)", suffix, ds),
		XLabel: "typo %",
		X:      x,
		Series: []Series{
			{Name: "Fix", Values: recFix},
			{Name: "Heu", Values: recHeu},
			{Name: "Csm", Values: recCsm},
		},
		Notes: []string{"paper shape: Fix recall below the consistency-seeking baselines"},
	}
	for _, t := range []*Table{prec, rec} {
		if err := t.sanity(); err != nil {
			return nil, err
		}
	}
	return []*Table{prec, rec}, nil
}

// Fig10Rules reproduces Figure 10(c,d) for hosp and 10(g,h) for uis:
// accuracy of Fix as the rule budget grows, against the (constant) baseline
// accuracies. Noise is fixed at cfg.NoiseRate with half typos, as in the
// paper.
func Fig10Rules(cfg Config, ds string) ([]*Table, error) {
	if err := dsCheck(ds); err != nil {
		return nil, err
	}
	w, err := makeWorkload(cfg, ds, 0.5)
	if err != nil {
		return nil, err
	}
	sHeu := metrics.Evaluate(w.ds.Rel, w.dirty, heu.Repair(w.dirty, w.ds.FDs, heu.Config{}))
	sCsm := metrics.Evaluate(w.ds.Rel, w.dirty, csm.Repair(w.dirty, w.ds.FDs, csm.Config{Seed: cfg.Seed}))

	counts := cfg.ruleCounts(ds)
	x := make([]float64, len(counts))
	var recFix, precFix, recHeu, precHeu, recCsm, precCsm []float64
	for i, n := range counts {
		x[i] = float64(n)
		sFix, _, err := fixScores(cfg, w, n)
		if err != nil {
			return nil, err
		}
		recFix = append(recFix, sFix.Recall)
		precFix = append(precFix, sFix.Precision)
		recHeu = append(recHeu, sHeu.Recall)
		precHeu = append(precHeu, sHeu.Precision)
		recCsm = append(recCsm, sCsm.Recall)
		precCsm = append(precCsm, sCsm.Precision)
	}

	suffix := "(c,d)"
	if ds == "uis" {
		suffix = "(g,h)"
	}
	rec := &Table{
		ID:     "fig10-rules-recall-" + ds,
		Title:  fmt.Sprintf("Figure 10%s recall vs #rules (%s)", suffix, ds),
		XLabel: "#rules",
		X:      x,
		Series: []Series{
			{Name: "Fix", Values: recFix},
			{Name: "Heu", Values: recHeu},
			{Name: "Csm", Values: recCsm},
		},
		Notes: []string{"paper shape: Fix recall grows with |Σ|; baselines are flat lines"},
	}
	prec := &Table{
		ID:     "fig10-rules-precision-" + ds,
		Title:  fmt.Sprintf("Figure 10%s precision vs #rules (%s)", suffix, ds),
		XLabel: "#rules",
		X:      x,
		Series: []Series{
			{Name: "Fix", Values: precFix},
			{Name: "Heu", Values: precHeu},
			{Name: "Csm", Values: precCsm},
		},
		Notes: []string{"paper shape: Fix precision stays high as |Σ| grows"},
	}
	for _, t := range []*Table{rec, prec} {
		if err := t.sanity(); err != nil {
			return nil, err
		}
	}
	return []*Table{rec, prec}, nil
}

// Fig11 reproduces Figure 11 (hosp): (a) the distribution of negative
// patterns per rule, and (b) accuracy as the total number of negative
// patterns varies.
func Fig11(cfg Config) ([]*Table, error) {
	w, err := makeWorkload(cfg, "hosp", 0.5)
	if err != nil {
		return nil, err
	}
	rs, err := rulegen.MineConsistent(w.ds.Rel, w.dirty, w.ds.FDs,
		rulegen.Config{MaxRules: cfg.ruleBudget("hosp"), Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	// (a) negative patterns per rule, sorted ascending; downsample to at
	// most 34 plotted points as the paper plots every 30th.
	hist := rulegen.NegativeHistogram(rs)
	step := len(hist)/34 + 1
	var hx, hy []float64
	for i := 0; i < len(hist); i += step {
		hx = append(hx, float64(i+1))
		hy = append(hy, float64(hist[i]))
	}
	atMost2 := 0
	for _, n := range hist {
		if n <= 2 {
			atMost2++
		}
	}
	ta := &Table{
		ID:     "fig11a",
		Title:  "Figure 11(a): negative patterns per rule (hosp, sorted)",
		XLabel: "rule (sorted)",
		X:      hx,
		Series: []Series{{Name: "#negative patterns", Values: hy}},
		Notes: []string{fmt.Sprintf("%d/%d rules (%.0f%%) have at most two negative patterns",
			atMost2, len(hist), 100*float64(atMost2)/float64(max(1, len(hist))))},
	}

	// (b) accuracy vs total negative patterns: trim the mined set to
	// fractions of its total negative-pattern count, as the paper does
	// ("we added up all negative patterns, and evaluated the accuracy ...
	// by varying the number of negative patterns for all rules in total").
	enriched := rs
	total := 0
	for _, r := range enriched.Rules() {
		total += r.NegativeSize()
	}
	var bx, bPrec, bRec []float64
	steps := cfg.RuleSteps
	if steps < 2 {
		steps = 2
	}
	for i := 1; i <= steps; i++ {
		budget := total * i / steps
		if budget < 1 {
			budget = 1
		}
		limited, err := rulegen.LimitTotalNegatives(enriched, budget, cfg.Seed+8)
		if err != nil {
			return nil, err
		}
		if limited.Len() == 0 {
			continue
		}
		rep, err := repair.NewRepairerChecked(limited)
		if err != nil {
			// Trimming cannot create conflicts, but guard anyway.
			return nil, err
		}
		res := rep.RepairRelation(w.dirty, repair.Linear, repair.RelationOptions{Workers: runtime.GOMAXPROCS(0)})
		s := metrics.Evaluate(w.ds.Rel, w.dirty, res.Relation)
		bx = append(bx, float64(budget))
		bPrec = append(bPrec, s.Precision)
		bRec = append(bRec, s.Recall)
	}
	tb := &Table{
		ID:     "fig11b",
		Title:  "Figure 11(b): accuracy vs total negative patterns (hosp)",
		XLabel: "#negative patterns",
		X:      bx,
		Series: []Series{
			{Name: "precision", Values: bPrec},
			{Name: "recall", Values: bRec},
		},
		Notes: []string{"paper shape: more negatives lift recall while precision stays high"},
	}
	for _, t := range []*Table{ta, tb} {
		if err := t.sanity(); err != nil {
			return nil, err
		}
	}
	return []*Table{ta, tb}, nil
}

// Fig12 reproduces Figure 12 (hosp, 100 rules, 10% noise): (a) errors
// corrected per fixing rule — each of which would have been a batch of user
// interactions under editing rules — and (b) Fix vs automated Edit
// accuracy.
func Fig12(cfg Config) ([]*Table, error) {
	w, err := makeWorkload(cfg, "hosp", 0.5)
	if err != nil {
		return nil, err
	}
	budget := 100
	if cfg.ruleBudget("hosp") < budget {
		budget = cfg.ruleBudget("hosp")
	}
	rs, err := rulegen.MineConsistent(w.ds.Rel, w.dirty, w.ds.FDs,
		rulegen.Config{MaxRules: budget, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	rep, err := repair.NewRepairerChecked(rs)
	if err != nil {
		return nil, err
	}
	res := rep.RepairRelation(w.dirty, repair.Linear, repair.RelationOptions{Workers: runtime.GOMAXPROCS(0)})

	// (a) corrections per rule, sorted descending.
	counts := make([]int, 0, rs.Len())
	for _, r := range rs.Rules() {
		counts = append(counts, res.PerRule[r.Name()])
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	step := len(counts)/34 + 1
	var ax, ay []float64
	for i := 0; i < len(counts); i += step {
		ax = append(ax, float64(i+1))
		ay = append(ay, float64(counts[i]))
	}
	maxFix := 0
	if len(counts) > 0 {
		maxFix = counts[0]
	}
	ta := &Table{
		ID:     "fig12a",
		Title:  "Figure 12(a): errors corrected per fixing rule (hosp)",
		XLabel: "rule (sorted desc)",
		X:      ax,
		Series: []Series{{Name: "#errors corrected", Values: ay}},
		Notes: []string{fmt.Sprintf(
			"top rule corrected %d errors; under editing rules each would cost one user interaction", maxFix)},
	}

	// (b) Fix vs automated Edit (fixing rules stripped of negatives).
	sFix := metrics.Evaluate(w.ds.Rel, w.dirty, res.Relation)
	edit := editrule.FromFixingRules(rs).Repair(w.dirty)
	sEdit := metrics.Evaluate(w.ds.Rel, w.dirty, edit.Relation)
	tb := &Table{
		ID:      "fig12b",
		Title:   "Figure 12(b): fixing rules vs automated editing rules (hosp)",
		XLabel:  "metric",
		XLabels: []string{"precision", "recall", "f1"},
		Series: []Series{
			{Name: "Fix", Values: []float64{sFix.Precision, sFix.Recall, sFix.F1}},
			{Name: "Edit", Values: []float64{sEdit.Precision, sEdit.Recall, sEdit.F1}},
		},
		Notes: []string{fmt.Sprintf("automated Edit asked %d simulated user confirmations", edit.Interactions)},
	}
	for _, t := range []*Table{ta, tb} {
		if err := t.sanity(); err != nil {
			return nil, err
		}
	}
	return []*Table{ta, tb}, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
