package repair

import (
	"math/rand"
	"sync"
	"testing"

	"fixrule/internal/core"
	"fixrule/internal/schema"
)

// TestCodedRepairZeroAllocs: the EncodeTuple + RepairEncoded hot path must
// not allocate in steady state — the headline property of the compiled
// engine (the assured set is a bitmask in pooled scratch, the inverted
// lists are flat slices, and all buffers are caller- or pool-owned).
func TestCodedRepairZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	rs := paperRuleset()
	r := NewRepairer(rs)
	dirty := schema.Tuple{"Ian", "China", "Shanghai", "Hongkong", "ICDE"}
	row := make([]uint32, len(dirty))
	applied := make([]int32, 0, rs.Len())

	for _, alg := range []Algorithm{Chase, Linear} {
		// Warm the scratch pool outside the measured runs.
		row = r.EncodeTuple(dirty, row)
		applied = r.RepairEncoded(row, alg, applied)
		if len(applied) == 0 {
			t.Fatalf("%v: expected the paper tuple to be repaired", alg)
		}
		allocs := testing.AllocsPerRun(100, func() {
			row = r.EncodeTuple(dirty, row)
			applied = r.RepairEncoded(row, alg, applied)
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocs per coded repair, want 0", alg, allocs)
		}
	}
}

// TestRepairTupleSingleAlloc: the string-level convenience wrapper may
// allocate only the returned clone and its step slice.
func TestRepairTupleSingleAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	rs := paperRuleset()
	r := NewRepairer(rs)
	clean := schema.Tuple{"George", "China", "Beijing", "Beijing", "SIGMOD"}
	r.RepairTuple(clean, Linear) // warm the pool
	allocs := testing.AllocsPerRun(100, func() {
		r.RepairTuple(clean, Linear)
	})
	// One allocation: the returned tuple clone (no steps on a clean tuple).
	if allocs > 1 {
		t.Errorf("%v allocs per clean RepairTuple, want <= 1", allocs)
	}
}

// TestCompiledStepsMatchReference: beyond final-tuple agreement (covered by
// TestChaseLinearFixAgreeRandomized), the compiled paths must reproduce the
// reference chase's exact step sequence — same rules, same order, same
// from/to values.
func TestCompiledStepsMatchReference(t *testing.T) {
	sch := schema.New("R", "a", "b", "c", "d")
	rng := rand.New(rand.NewSource(7))
	vals := []string{"0", "1", "2", "3", "_"}
	for trial := 0; trial < 150; trial++ {
		rs := randomConsistentRuleset(t, rng, sch, 6)
		if rs.Len() == 0 {
			continue
		}
		r := NewRepairer(rs)
		for i := 0; i < 20; i++ {
			tup := schema.Tuple{
				vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))],
				vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))],
			}
			_, refSteps, _ := core.Fix(rs.Rules(), tup)
			_, chSteps := r.RepairTuple(tup, Chase)
			if !stepsEqual(refSteps, chSteps) {
				t.Fatalf("trial %d: chase steps diverge on %v\n ref=%v\n got=%v",
					trial, tup, refSteps, chSteps)
			}
			// lRepair applies the same rule set in a possibly different
			// order; by Church–Rosser the multiset of steps agrees.
			_, lnSteps := r.RepairTuple(tup, Linear)
			if len(lnSteps) != len(refSteps) {
				t.Fatalf("trial %d: linear step count %d != reference %d on %v",
					trial, len(lnSteps), len(refSteps), tup)
			}
		}
	}
}

func stepsEqual(a, b []core.Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rule != b[i].Rule || a[i].Attr != b[i].Attr ||
			a[i].From != b[i].From || a[i].To != b[i].To {
			return false
		}
	}
	return true
}

// TestParallelAndTupleRepairsShareRepairer drives a parallel RepairRelation
// concurrently with single-tuple repairs on one shared Repairer — the
// supported concurrent-use contract. Run with -race this also proves the
// scratch pool and encode memo are properly goroutine-local.
func TestParallelAndTupleRepairsShareRepairer(t *testing.T) {
	rs := paperRuleset()
	r := NewRepairer(rs)
	rel := fig1Relation()

	seq := r.RepairRelation(rel, Linear)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res := r.RepairRelation(rel, Linear, RelationOptions{Workers: 3})
				if res.Steps != seq.Steps {
					t.Errorf("worker %d: parallel steps %d != sequential %d", w, res.Steps, seq.Steps)
					return
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tup := rel.Row(i % rel.Len())
				fixed, _ := r.RepairTuple(tup, Algorithm(i%2))
				if want := seq.Relation.Row(i % rel.Len()); !fixed.Equal(want) {
					t.Errorf("worker %d: tuple repair %v != relation repair %v", w, fixed, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
