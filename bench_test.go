// Benchmarks regenerating the timing-based artifacts of the paper's
// Section 7 (see DESIGN.md's per-experiment index), plus ablation benches
// for the repository's own design choices. Sizes are scaled from the
// paper's 115K/15K rows so the full suite stays in benchmark territory;
// cmd/experiments reruns the same measurements at paper scale.
package fixrule

import (
	"bytes"
	"context"
	"io"
	"testing"

	"fixrule/internal/consistency"
	"fixrule/internal/csm"
	"fixrule/internal/dataset"
	"fixrule/internal/fd"
	"fixrule/internal/fddisc"
	"fixrule/internal/heu"
	"fixrule/internal/noise"
	"fixrule/internal/repair"
	"fixrule/internal/rulegen"
	"fixrule/internal/schema"
	"fixrule/internal/store"
)

// benchWorkload caches one workload per (dataset, rows) so every benchmark
// in a run measures against identical inputs.
type benchWorkload struct {
	truth, dirty *schema.Relation
	fds          []*fd.FD
	rules        *Ruleset // mined, consistent
	rawRules     *Ruleset // mined, unresolved (for consistency benches)
}

var benchCache = map[string]*benchWorkload{}

func loadBench(tb testing.TB, ds string, rows, ruleBudget int) *benchWorkload {
	tb.Helper()
	key := ds
	if w, ok := benchCache[key]; ok {
		return w
	}
	d, err := dataset.ByName(ds, rows, 1)
	if err != nil {
		tb.Fatal(err)
	}
	dirty, _, err := noise.Inject(d.Rel, noise.Config{
		Rate: 0.10, TypoFraction: 0.5, Attrs: d.NoiseAttrs, Seed: 2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := rulegen.Mine(d.Rel, dirty, d.FDs, rulegen.Config{MaxRules: ruleBudget, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	rules, err := rulegen.MineConsistent(d.Rel, dirty, d.FDs, rulegen.Config{MaxRules: ruleBudget, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	w := &benchWorkload{truth: d.Rel, dirty: dirty, fds: d.FDs, rules: rules, rawRules: raw}
	benchCache[key] = w
	return w
}

func loadHosp(tb testing.TB) *benchWorkload { return loadBench(tb, "hosp", 20000, 500) }
func loadUIS(tb testing.TB) *benchWorkload  { return loadBench(tb, "uis", 8000, 100) }

// BenchmarkFig9ConsistencyHosp regenerates Figure 9(a): consistency
// checking on hosp rules, tuple enumeration vs rule characterisation,
// worst case (all pairs) vs real case (stop at first conflict).
func BenchmarkFig9ConsistencyHosp(b *testing.B) {
	w := loadHosp(b)
	b.Run("isConsist_t/worst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			consistency.AllConflicts(w.rawRules, consistency.ByEnumeration)
		}
	})
	b.Run("isConsist_t/real", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			consistency.IsConsistent(w.rawRules, consistency.ByEnumeration)
		}
	})
	b.Run("isConsist_r/worst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			consistency.AllConflicts(w.rawRules, consistency.ByRule)
		}
	})
	b.Run("isConsist_r/real", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			consistency.IsConsistent(w.rawRules, consistency.ByRule)
		}
	})
}

// BenchmarkFig9ConsistencyUIS regenerates Figure 9(b) on uis rules.
func BenchmarkFig9ConsistencyUIS(b *testing.B) {
	w := loadUIS(b)
	b.Run("isConsist_t/worst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			consistency.AllConflicts(w.rawRules, consistency.ByEnumeration)
		}
	})
	b.Run("isConsist_r/worst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			consistency.AllConflicts(w.rawRules, consistency.ByRule)
		}
	})
}

// BenchmarkFig13RepairHosp regenerates Figure 13(a): cRepair vs lRepair
// over the dirty hosp relation.
func BenchmarkFig13RepairHosp(b *testing.B) {
	w := loadHosp(b)
	rep := repair.NewRepairer(w.rules)
	b.Run("cRepair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep.RepairRelation(w.dirty, repair.Chase)
		}
	})
	b.Run("lRepair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep.RepairRelation(w.dirty, repair.Linear)
		}
	})
	b.Run("lRepair/parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep.RepairRelationParallel(w.dirty, repair.Linear, 0)
		}
	})
}

// BenchmarkFig13RepairUIS regenerates Figure 13(b) on uis, including the
// small-|Σ| regime where cRepair can win (the paper's crossover at 10
// rules).
func BenchmarkFig13RepairUIS(b *testing.B) {
	w := loadUIS(b)
	rep := repair.NewRepairer(w.rules)
	b.Run("cRepair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep.RepairRelation(w.dirty, repair.Chase)
		}
	})
	b.Run("lRepair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep.RepairRelation(w.dirty, repair.Linear)
		}
	})
	// Ten-rule prefix: the paper's crossover point.
	small := NewRuleset(w.rules.Schema())
	for _, r := range w.rules.Rules() {
		if small.Len() >= 10 {
			break
		}
		if err := small.Add(r); err != nil {
			b.Fatal(err)
		}
	}
	repSmall := repair.NewRepairer(small)
	b.Run("cRepair/10rules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			repSmall.RepairRelation(w.dirty, repair.Chase)
		}
	})
	b.Run("lRepair/10rules", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			repSmall.RepairRelation(w.dirty, repair.Linear)
		}
	})
}

// BenchmarkTableRuntimeHosp regenerates the Exp-3 runtime table on hosp:
// lRepair vs the Heu and Csm baselines.
func BenchmarkTableRuntimeHosp(b *testing.B) {
	w := loadHosp(b)
	rep := repair.NewRepairer(w.rules)
	b.Run("lRepair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep.RepairRelation(w.dirty, repair.Linear)
		}
	})
	b.Run("Heu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heu.Repair(w.dirty, w.fds, heu.Config{})
		}
	})
	b.Run("Csm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csm.Repair(w.dirty, w.fds, csm.Config{Seed: 1})
		}
	})
}

// BenchmarkTableRuntimeUIS regenerates the Exp-3 runtime table on uis.
func BenchmarkTableRuntimeUIS(b *testing.B) {
	w := loadUIS(b)
	rep := repair.NewRepairer(w.rules)
	b.Run("lRepair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep.RepairRelation(w.dirty, repair.Linear)
		}
	})
	b.Run("Heu", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heu.Repair(w.dirty, w.fds, heu.Config{})
		}
	})
	b.Run("Csm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csm.Repair(w.dirty, w.fds, csm.Config{Seed: 1})
		}
	})
}

// BenchmarkRepairSingleTuple measures the per-tuple costs behind the
// Section 6 complexity claims: cRepair is O(size(Σ)·|R|), lRepair is
// O(size(Σ)).
func BenchmarkRepairSingleTuple(b *testing.B) {
	w := loadHosp(b)
	rep := repair.NewRepairer(w.rules)
	row := w.dirty.Row(0)
	b.Run("cRepair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep.RepairTuple(row, repair.Chase)
		}
	})
	b.Run("lRepair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep.RepairTuple(row, repair.Linear)
		}
	})
}

// BenchmarkCodedRepairTuple measures the allocation-free coded hot path —
// EncodeTuple + RepairEncoded on caller-owned buffers, skipping the string
// materialisation RepairTuple performs. This is the per-tuple cost a
// streaming caller pays in steady state.
func BenchmarkCodedRepairTuple(b *testing.B) {
	w := loadHosp(b)
	rep := repair.NewRepairer(w.rules)
	row := make([]uint32, w.dirty.Schema().Arity())
	applied := make([]int32, 0, w.rules.Len())
	src := w.dirty.Row(0)
	b.Run("cRepair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			row = rep.EncodeTuple(src, row)
			applied = rep.RepairEncoded(row, repair.Chase, applied)
		}
	})
	b.Run("lRepair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			row = rep.EncodeTuple(src, row)
			applied = rep.RepairEncoded(row, repair.Linear, applied)
		}
	})
}

// BenchmarkStreamRepairHosp measures Repairer.Stream over the dirty hosp
// relation rendered as CSV: the sequential loop (Workers: 1) and the
// pipelined worker pool (workers = GOMAXPROCS). On a multi-core host the
// parallel row should track core count; on one core they should tie.
func BenchmarkStreamRepairHosp(b *testing.B) {
	w := loadHosp(b)
	rep := repair.NewRepairer(w.rules)
	var csvIn bytes.Buffer
	if err := schema.WriteCSV(&csvIn, w.dirty); err != nil {
		b.Fatal(err)
	}
	in := csvIn.Bytes()
	stream := func(in []byte, opts repair.StreamOptions) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rep.Stream(context.Background(), bytes.NewReader(in), io.Discard, repair.Linear, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("lRepair/stream", stream(in, repair.StreamOptions{Workers: 1}))
	b.Run("lRepair/stream-parallel", stream(in, repair.StreamOptions{}))
	// The fcol binary chunk format end to end, no CSV parse at all.
	var fcolIn bytes.Buffer
	if err := store.WriteColumnar(&fcolIn, w.dirty, 0); err != nil {
		b.Fatal(err)
	}
	b.Run("lRepair/stream-fcol", stream(fcolIn.Bytes(), repair.StreamOptions{In: repair.Fcol, Out: repair.Fcol, Workers: 1}))
}

// BenchmarkAblationViolationDetection compares the hash-partition FD
// violation detector against the naive O(n²) pairwise detector — the
// design choice DESIGN.md calls out for the fd package. The naive side
// runs on a slice of the relation to stay within benchmark time.
func BenchmarkAblationViolationDetection(b *testing.B) {
	w := loadUIS(b)
	small := schema.NewRelation(w.dirty.Schema())
	for i := 0; i < 1000 && i < w.dirty.Len(); i++ {
		small.Append(w.dirty.Row(i))
	}
	b.Run("hash-partition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fd.Violations(small, w.fds)
		}
	})
	b.Run("naive-pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fd.ViolationsNaive(small, w.fds)
		}
	})
}

// BenchmarkMineRules measures end-to-end rule mining (violation detection,
// expert simulation, consistency resolution).
func BenchmarkMineRules(b *testing.B) {
	w := loadHosp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rulegen.MineConsistent(w.truth, w.dirty, w.fds, rulegen.Config{MaxRules: 500, Seed: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckConsistencyPublic exercises the public-API consistency
// check on the mined hosp ruleset.
func BenchmarkCheckConsistencyPublic(b *testing.B) {
	w := loadHosp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if CheckConsistency(w.rules) != nil {
			b.Fatal("mined consistent ruleset reported inconsistent")
		}
	}
}

// BenchmarkAblationParallelConsistency compares sequential and parallel
// pair scanning over the mined hosp rules (on multi-core hosts the
// parallel scan approaches a linear speedup; results are identical).
func BenchmarkAblationParallelConsistency(b *testing.B) {
	w := loadHosp(b)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			consistency.AllConflicts(w.rawRules, consistency.ByRule)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			consistency.AllConflictsParallel(w.rawRules, consistency.ByRule, 0)
		}
	})
}

// BenchmarkStoreIO compares frel and CSV round-trip throughput on the
// dirty hosp relation.
func BenchmarkStoreIO(b *testing.B) {
	w := loadHosp(b)
	b.Run("frel/write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := store.Write(&buf, w.dirty); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csv/write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := schema.WriteCSV(&buf, w.dirty); err != nil {
				b.Fatal(err)
			}
		}
	})
	var frel, csv bytes.Buffer
	if err := store.Write(&frel, w.dirty); err != nil {
		b.Fatal(err)
	}
	if err := schema.WriteCSV(&csv, w.dirty); err != nil {
		b.Fatal(err)
	}
	b.Run("frel/read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.Read(bytes.NewReader(frel.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("csv/read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := schema.ReadCSV(bytes.NewReader(csv.Bytes()), w.dirty.Schema()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMineModes compares the rule-acquisition modes' costs on the
// hosp workload.
func BenchmarkMineModes(b *testing.B) {
	w := loadHosp(b)
	b.Run("expert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rulegen.MineConsistent(w.truth, w.dirty, w.fds, rulegen.Config{MaxRules: 500, Seed: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("discover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rulegen.Discover(w.dirty, w.fds, rulegen.DiscoverConfig{MaxRules: 500, Seed: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFDDiscovery measures TANE-style FD discovery on the dirty hosp
// relation (MaxLHS 1, approximate) — the bootstrap cost of the fully
// autonomous pipeline.
func BenchmarkFDDiscovery(b *testing.B) {
	w := loadHosp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fddisc.Discover(w.dirty, fddisc.Config{MaxLHS: 1, MaxError: 0.15}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutonomousPipeline measures the full zero-input chain: discover
// FDs, discover rules, repair.
func BenchmarkAutonomousPipeline(b *testing.B) {
	w := loadHosp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := fddisc.Discover(w.dirty, fddisc.Config{MaxLHS: 1, MaxError: 0.15})
		if err != nil {
			b.Fatal(err)
		}
		rules, err := rulegen.Discover(w.dirty, fddisc.Merge(ds), rulegen.DiscoverConfig{Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		repair.NewRepairer(rules).RepairRelation(w.dirty, repair.Linear)
	}
}
