package experiments

// Extension experiments beyond the paper's figures: they validate claims
// the paper states but does not plot, and the future-work features this
// repository implements (DESIGN.md §5, §6).

import (
	"fmt"
	"runtime"

	"fixrule/internal/core"
	"fixrule/internal/editrule"
	"fixrule/internal/fddisc"
	"fixrule/internal/metrics"
	"fixrule/internal/repair"
	"fixrule/internal/rulegen"
	"fixrule/internal/schema"
)

// ExtDataSize validates the Exp-3 claim the paper states without plotting:
// "As they are linear in data size, we evaluated their efficiency by
// varying the number of rules." Here the data size varies instead, at the
// full rule budget, and the series should be straight lines.
func ExtDataSize(cfg Config, ds string) ([]*Table, error) {
	if err := dsCheck(ds); err != nil {
		return nil, err
	}
	full := cfg.rows(ds)
	steps := cfg.RuleSteps
	if steps < 2 {
		steps = 2
	}
	var x, chase, linear []float64
	for i := 1; i <= steps; i++ {
		rows := full * i / steps
		if rows < 100 {
			rows = 100
		}
		sub := cfg
		if ds == "uis" {
			sub.UISRows = rows
		} else {
			sub.HospRows = rows
		}
		w, err := makeWorkload(sub, ds, 0.5)
		if err != nil {
			return nil, err
		}
		rs, err := rulegen.MineConsistent(w.ds.Rel, w.dirty, w.ds.FDs,
			rulegen.Config{MaxRules: cfg.ruleBudget(ds), Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		rep := repair.NewRepairer(rs)
		x = append(x, float64(rows))
		chase = append(chase, timeMS(func() { rep.RepairRelation(w.dirty, repair.Chase) }))
		linear = append(linear, timeMS(func() { rep.RepairRelation(w.dirty, repair.Linear) }))
	}
	t := &Table{
		ID:     "ext-datasize-" + ds,
		Title:  fmt.Sprintf("Extension: repair time vs data size (%s)", ds),
		XLabel: "#rows",
		X:      x,
		Series: []Series{
			{Name: "cRepair (ms)", Values: chase},
			{Name: "lRepair (ms)", Values: linear},
		},
		Notes: []string{"claim under test: both repairing algorithms are linear in data size (§7.2 Exp-3)"},
	}
	if err := t.sanity(); err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// ExtDiscover compares the rule-acquisition modes this repository
// implements on the same dirty hosp data: expert mining (ground truth as
// the certifier, the paper's §7.1 setup), unsupervised discovery (majority
// voting over the paper's FDs, the §8 future work), master-data mining
// (editing rules' justification compiled into fixing rules), and the fully
// autonomous pipeline (discovery over FDs discovered from the dirty data
// itself — no input at all).
func ExtDiscover(cfg Config) ([]*Table, error) {
	fracs := cfg.typoFracs()
	var x []float64
	var pExpert, pDiscover, pMaster, pAuto, rExpert, rDiscover, rMaster, rAuto []float64
	for _, frac := range fracs {
		x = append(x, frac*100)
		w, err := makeWorkload(cfg, "hosp", frac)
		if err != nil {
			return nil, err
		}
		discFDs, err := fddisc.Discover(w.dirty, fddisc.Config{MaxLHS: 1, MaxError: 0.15})
		if err != nil {
			return nil, err
		}
		autoRules, err := rulegen.Discover(w.dirty, fddisc.Merge(discFDs),
			rulegen.DiscoverConfig{MaxRules: cfg.ruleBudget("hosp") * 2, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}

		expert, err := rulegen.MineConsistent(w.ds.Rel, w.dirty, w.ds.FDs,
			rulegen.Config{MaxRules: cfg.ruleBudget("hosp"), Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		discovered, err := rulegen.Discover(w.dirty, w.ds.FDs,
			rulegen.DiscoverConfig{MaxRules: cfg.ruleBudget("hosp"), Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		// Master: a trusted phn → (zip, city) directory projected from the
		// clean relation, repairing the city attribute.
		masterRel, err := masterOf(w)
		if err != nil {
			return nil, err
		}
		masterRules, err := rulegen.FromMaster(w.dirty, masterRel, rulegen.MasterSpec{
			Match:        map[string]string{"zip": "zip"},
			Target:       "city",
			MasterTarget: "city",
		}, rulegen.Config{Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}

		for i, rs := range []*core.Ruleset{expert, discovered, masterRules, autoRules} {
			rep := repair.NewRepairer(rs)
			res := rep.RepairRelation(w.dirty, repair.Linear, repair.RelationOptions{Workers: runtime.GOMAXPROCS(0)})
			s := metrics.Evaluate(w.ds.Rel, w.dirty, res.Relation)
			switch i {
			case 0:
				pExpert = append(pExpert, s.Precision)
				rExpert = append(rExpert, s.Recall)
			case 1:
				pDiscover = append(pDiscover, s.Precision)
				rDiscover = append(rDiscover, s.Recall)
			case 2:
				pMaster = append(pMaster, s.Precision)
				rMaster = append(rMaster, s.Recall)
			case 3:
				pAuto = append(pAuto, s.Precision)
				rAuto = append(rAuto, s.Recall)
			}
		}
	}
	prec := &Table{
		ID:     "ext-discover-precision",
		Title:  "Extension: rule acquisition modes, precision vs typo rate (hosp)",
		XLabel: "typo %",
		X:      x,
		Series: []Series{
			{Name: "expert (§7.1)", Values: pExpert},
			{Name: "discovered (§8)", Values: pDiscover},
			{Name: "master", Values: pMaster},
			{Name: "autonomous", Values: pAuto},
		},
		Notes: []string{"expert rules should dominate; discovery trades precision for autonomy"},
	}
	rec := &Table{
		ID:     "ext-discover-recall",
		Title:  "Extension: rule acquisition modes, recall vs typo rate (hosp)",
		XLabel: "typo %",
		X:      x,
		Series: []Series{
			{Name: "expert (§7.1)", Values: rExpert},
			{Name: "discovered (§8)", Values: rDiscover},
			{Name: "master (city only)", Values: rMaster},
			{Name: "autonomous", Values: rAuto},
		},
	}
	for _, t := range []*Table{prec, rec} {
		if err := t.sanity(); err != nil {
			return nil, err
		}
	}
	return []*Table{prec, rec}, nil
}

// masterOf builds the zip → (city, state) master directory from the
// workload's clean relation.
func masterOf(w *workload) (*schema.Relation, error) {
	return editrule.BuildMaster("ZipDir", w.ds.Rel, []string{"zip", "city", "state"})
}
