package fixrule

import (
	"bytes"
	"context"
	"maps"
	"testing"

	"fixrule/internal/core"
	"fixrule/internal/repair"
	"fixrule/internal/schema"
	"fixrule/internal/store"
)

// TestCompiledRepairMatchesReference cross-checks the compiled repair
// engine against the string-level reference semantics in internal/core on
// the two benchmark workloads (mined hosp and uis rulesets over dirtied
// relations). For each dataset it fixes every tuple row-by-row with
// core.Fix, then requires RepairRelation (both algorithms) and
// RepairRelationParallel to produce byte-identical tuples and the same
// total step count — the dictionary encoding, inverted lists, bitmask
// assured set and copy-on-write output must be pure optimisations.
func TestCompiledRepairMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		load func(testing.TB) *benchWorkload
	}{
		{"hosp", loadHosp},
		{"uis", loadUIS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.load(t)
			rules := w.rules.Rules()
			n := w.dirty.Len()

			refRows := make([]schema.Tuple, n)
			refSteps := 0
			for i := 0; i < n; i++ {
				fixed, steps, _ := core.Fix(rules, w.dirty.Row(i))
				refRows[i] = fixed
				refSteps += len(steps)
			}
			if refSteps == 0 {
				t.Fatalf("%s: reference repair made no fixes; workload is not exercising the engine", tc.name)
			}

			rep := repair.NewRepairer(w.rules)
			check := func(label string, res *repair.Result) {
				t.Helper()
				if res.Steps != refSteps {
					t.Errorf("%s: %d steps, reference made %d", label, res.Steps, refSteps)
				}
				if res.Relation.Len() != n {
					t.Fatalf("%s: %d rows out, %d in", label, res.Relation.Len(), n)
				}
				for i := 0; i < n; i++ {
					if !res.Relation.Row(i).Equal(refRows[i]) {
						t.Fatalf("%s: row %d = %v, reference %v (input %v)",
							label, i, res.Relation.Row(i), refRows[i], w.dirty.Row(i))
					}
				}
			}
			check("cRepair", rep.RepairRelation(w.dirty, repair.Chase))
			check("lRepair", rep.RepairRelation(w.dirty, repair.Linear))
			check("lRepair/parallel", rep.RepairRelationParallel(w.dirty, repair.Linear, 4))
			check("cRepair/parallel", rep.RepairRelationParallel(w.dirty, repair.Chase, 4))
		})
	}
}

// TestColumnarStreamMatchesRowStream cross-checks the stream engines
// against the in-memory reference repair on the two benchmark workloads:
// for each dataset and worker count, a CSV Stream must produce the bytes
// schema.WriteCSV renders from RepairRelation's result, with identical
// statistics, and a CSV-to-fcol Stream must decode to the same rows. The
// raw direct-Σ coding, exact-match row filter, zero-copy span emission and
// dictionary translation must all be pure optimisations.
func TestColumnarStreamMatchesRowStream(t *testing.T) {
	for _, tc := range []struct {
		name string
		load func(testing.TB) *benchWorkload
	}{
		{"hosp", loadHosp},
		{"uis", loadUIS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.load(t)
			rep := repair.NewRepairer(w.rules)
			var in bytes.Buffer
			if err := schema.WriteCSV(&in, w.dirty); err != nil {
				t.Fatal(err)
			}

			res := rep.RepairRelation(w.dirty, repair.Linear)
			var ref bytes.Buffer
			if err := schema.WriteCSV(&ref, res.Relation); err != nil {
				t.Fatal(err)
			}
			repaired := 0
			for i, c := range res.Changed {
				if i == 0 || res.Changed[i-1].Row != c.Row {
					repaired++
				}
			}
			if repaired == 0 {
				t.Fatalf("%s: reference repaired nothing; workload is not exercising the engine", tc.name)
			}

			for _, workers := range []int{1, 4} {
				for _, out := range []repair.Format{repair.CSV, repair.Fcol} {
					var got bytes.Buffer
					stats, err := rep.Stream(context.Background(), bytes.NewReader(in.Bytes()), &got, repair.Linear,
						repair.StreamOptions{Out: out, Workers: workers})
					if err != nil {
						t.Fatalf("%v out workers=%d: %v", out, workers, err)
					}
					if out == repair.CSV && !bytes.Equal(got.Bytes(), ref.Bytes()) {
						t.Errorf("workers=%d: stream output differs from reference (%d vs %d bytes)",
							workers, got.Len(), ref.Len())
					}
					if out == repair.Fcol {
						rel, err := store.ReadColumnar(&got)
						if err != nil {
							t.Fatalf("workers=%d: decoding fcol output: %v", workers, err)
						}
						if len(schema.Diff(res.Relation, rel)) != 0 {
							t.Errorf("workers=%d: fcol output rows differ from reference", workers)
						}
					}
					if stats.Rows != w.dirty.Len() || stats.Repaired != repaired ||
						stats.Steps != res.Steps || stats.OOV != res.OOV {
						t.Errorf("%v out workers=%d: stats = %d/%d/%d/%d rows/repaired/steps/oov, reference %d/%d/%d/%d",
							out, workers, stats.Rows, stats.Repaired, stats.Steps, stats.OOV,
							w.dirty.Len(), repaired, res.Steps, res.OOV)
					}
					if !maps.Equal(stats.PerRule, res.PerRule) {
						t.Errorf("%v out workers=%d: per-rule counts differ", out, workers)
					}
					if !maps.Equal(stats.OOVByAttr, res.OOVByAttr) {
						t.Errorf("%v out workers=%d: per-attribute OOV counts differ", out, workers)
					}
				}
			}
		})
	}
}
