package repair

import (
	"math/rand"
	"testing"

	"fixrule/internal/consistency"
	"fixrule/internal/core"
	"fixrule/internal/schema"
)

func travel() *schema.Schema {
	return schema.New("Travel", "name", "country", "capital", "city", "conf")
}

func paperRuleset() *core.Ruleset {
	sch := travel()
	return core.MustRuleset(
		core.MustNew("phi1", sch, map[string]string{"country": "China"},
			"capital", []string{"Shanghai", "Hongkong"}, "Beijing"),
		core.MustNew("phi2", sch, map[string]string{"country": "Canada"},
			"capital", []string{"Toronto"}, "Ottawa"),
		core.MustNew("phi3", sch,
			map[string]string{"capital": "Tokyo", "city": "Tokyo", "conf": "ICDE"},
			"country", []string{"China"}, "Japan"),
		core.MustNew("phi4", sch,
			map[string]string{"capital": "Beijing", "conf": "ICDE"},
			"city", []string{"Hongkong"}, "Shanghai"),
	)
}

func fig1Relation() *schema.Relation {
	rel := schema.NewRelation(travel())
	rel.Append(schema.Tuple{"George", "China", "Beijing", "Beijing", "SIGMOD"})
	rel.Append(schema.Tuple{"Ian", "China", "Shanghai", "Hongkong", "ICDE"})
	rel.Append(schema.Tuple{"Peter", "China", "Tokyo", "Tokyo", "ICDE"})
	rel.Append(schema.Tuple{"Mike", "Canada", "Toronto", "Toronto", "VLDB"})
	return rel
}

func fig8Want() []schema.Tuple {
	return []schema.Tuple{
		{"George", "China", "Beijing", "Beijing", "SIGMOD"},
		{"Ian", "China", "Beijing", "Shanghai", "ICDE"},
		{"Peter", "Japan", "Tokyo", "Tokyo", "ICDE"},
		{"Mike", "Canada", "Ottawa", "Toronto", "VLDB"},
	}
}

func TestRunningExampleBothAlgorithms(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := fig1Relation()
	want := fig8Want()
	for _, alg := range []Algorithm{Chase, Linear} {
		for i := 0; i < rel.Len(); i++ {
			got, _ := r.RepairTuple(rel.Row(i), alg)
			if !got.Equal(want[i]) {
				t.Errorf("%v: r%d = %v, want %v", alg, i+1, got, want[i])
			}
		}
	}
}

func TestRepairTupleDoesNotMutateInput(t *testing.T) {
	r := NewRepairer(paperRuleset())
	row := schema.Tuple{"Ian", "China", "Shanghai", "Hongkong", "ICDE"}
	orig := row.Clone()
	for _, alg := range []Algorithm{Chase, Linear} {
		r.RepairTuple(row, alg)
		if !row.Equal(orig) {
			t.Fatalf("%v mutated the input tuple", alg)
		}
	}
}

func TestLinearCascade(t *testing.T) {
	// r2 requires a cascade: φ1 repairs capital, which completes φ4's
	// evidence (capital=Beijing, conf=ICDE) and repairs city (Figure 8).
	r := NewRepairer(paperRuleset())
	got, steps := r.RepairTuple(schema.Tuple{"Ian", "China", "Shanghai", "Hongkong", "ICDE"}, Linear)
	if len(steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(steps))
	}
	if steps[0].Rule.Name() != "phi1" || steps[1].Rule.Name() != "phi4" {
		t.Errorf("step order = %s, %s", steps[0].Rule.Name(), steps[1].Rule.Name())
	}
	if got[2] != "Beijing" || got[3] != "Shanghai" {
		t.Errorf("repaired = %v", got)
	}
}

func TestCleanTupleUntouched(t *testing.T) {
	r := NewRepairer(paperRuleset())
	clean := schema.Tuple{"George", "China", "Beijing", "Beijing", "SIGMOD"}
	for _, alg := range []Algorithm{Chase, Linear} {
		got, steps := r.RepairTuple(clean, alg)
		if len(steps) != 0 || !got.Equal(clean) {
			t.Errorf("%v: clean tuple repaired: %v (%d steps)", alg, got, len(steps))
		}
	}
}

func TestRepairRelation(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := fig1Relation()
	for _, alg := range []Algorithm{Chase, Linear} {
		res := r.RepairRelation(rel, alg)
		want := fig8Want()
		for i := range want {
			if !res.Relation.Row(i).Equal(want[i]) {
				t.Errorf("%v: row %d = %v", alg, i, res.Relation.Row(i))
			}
		}
		if res.Steps != 4 {
			t.Errorf("%v: steps = %d, want 4", alg, res.Steps)
		}
		if len(res.Changed) != 4 {
			t.Errorf("%v: changed = %v", alg, res.Changed)
		}
		// Figure 8: φ1 fixes 1 error, φ2 1, φ3 1, φ4 1.
		for _, name := range []string{"phi1", "phi2", "phi3", "phi4"} {
			if res.PerRule[name] != 1 {
				t.Errorf("%v: PerRule[%s] = %d, want 1", alg, name, res.PerRule[name])
			}
		}
		// Input untouched.
		if rel.Get(1, "capital") != "Shanghai" {
			t.Fatal("RepairRelation mutated its input")
		}
	}
}

// TestRepairRelationOneOptions: RepairRelation takes at most one
// RelationOptions; a second is a caller bug and panics rather than being
// silently ignored.
func TestRepairRelationOneOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RepairRelation with two RelationOptions did not panic")
		}
	}()
	NewRepairer(paperRuleset()).RepairRelation(fig1Relation(), Linear, RelationOptions{}, RelationOptions{Workers: 2})
}

func TestRepairRelationParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRepairer(paperRuleset())
	rel := schema.NewRelation(travel())
	countries := []string{"China", "Canada", "Japan", "_"}
	capitals := []string{"Beijing", "Shanghai", "Hongkong", "Toronto", "Ottawa", "Tokyo", "_"}
	cities := []string{"Beijing", "Shanghai", "Hongkong", "Tokyo", "Toronto", "_"}
	confs := []string{"ICDE", "SIGMOD", "VLDB"}
	for i := 0; i < 500; i++ {
		rel.Append(schema.Tuple{
			"p", countries[rng.Intn(len(countries))], capitals[rng.Intn(len(capitals))],
			cities[rng.Intn(len(cities))], confs[rng.Intn(len(confs))],
		})
	}
	seq := r.RepairRelation(rel, Linear)
	for _, workers := range []int{0, 1, 3, 16} {
		par := r.RepairRelation(rel, Linear, RelationOptions{Workers: workers})
		if len(schema.Diff(seq.Relation, par.Relation)) != 0 {
			t.Fatalf("workers=%d: parallel result differs", workers)
		}
		if par.Steps != seq.Steps {
			t.Errorf("workers=%d: steps %d != %d", workers, par.Steps, seq.Steps)
		}
		for name, n := range seq.PerRule {
			if par.PerRule[name] != n {
				t.Errorf("workers=%d: PerRule[%s] = %d, want %d", workers, name, par.PerRule[name], n)
			}
		}
	}
}

func TestNewRepairerChecked(t *testing.T) {
	if _, err := NewRepairerChecked(paperRuleset()); err != nil {
		t.Fatalf("consistent ruleset rejected: %v", err)
	}
	sch := travel()
	bad := core.MustRuleset(
		core.MustNew("phi1p", sch, map[string]string{"country": "China"},
			"capital", []string{"Shanghai", "Hongkong", "Tokyo"}, "Beijing"),
		core.MustNew("phi3", sch,
			map[string]string{"capital": "Tokyo", "city": "Tokyo", "conf": "ICDE"},
			"country", []string{"China"}, "Japan"),
	)
	if _, err := NewRepairerChecked(bad); err == nil {
		t.Fatal("inconsistent ruleset accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	if Chase.String() != "cRepair" || Linear.String() != "lRepair" {
		t.Errorf("Algorithm names: %s, %s", Chase, Linear)
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm string empty")
	}
}

// randomConsistentRuleset builds a random ruleset over a small domain and
// resolves it to consistency, for the equivalence property below.
func randomConsistentRuleset(t *testing.T, rng *rand.Rand, sch *schema.Schema, n int) *core.Ruleset {
	t.Helper()
	vals := []string{"0", "1", "2", "3"}
	attrs := sch.Attrs()
	rs := core.NewRuleset(sch)
	for k := 0; rs.Len() < n && k < n*20; k++ {
		perm := rng.Perm(len(attrs))
		nEv := 1 + rng.Intn(2)
		ev := map[string]string{}
		for _, i := range perm[:nEv] {
			ev[attrs[i]] = vals[rng.Intn(len(vals))]
		}
		target := attrs[perm[nEv]]
		fact := vals[rng.Intn(len(vals))]
		var negs []string
		for _, v := range vals {
			if v != fact && rng.Intn(2) == 0 {
				negs = append(negs, v)
			}
		}
		if len(negs) == 0 {
			continue
		}
		rule, err := core.New(ruleName(k), sch, ev, target, negs, fact)
		if err != nil {
			continue
		}
		if err := rs.Add(rule); err != nil {
			continue
		}
	}
	fixed, _, err := consistency.Resolve(rs, consistency.RemoveBoth{}, consistency.ByRule)
	if err != nil {
		t.Fatal(err)
	}
	return fixed
}

func ruleName(k int) string { return "r" + string(rune('A'+k%26)) + string(rune('0'+k/26)) }

// TestChaseLinearFixAgreeRandomized: the paper-critical equivalence — on any
// consistent Σ, cRepair, lRepair and the reference chase (core.Fix) all
// produce the same unique fix (Church–Rosser).
func TestChaseLinearFixAgreeRandomized(t *testing.T) {
	sch := schema.New("R", "a", "b", "c", "d")
	rng := rand.New(rand.NewSource(99))
	vals := []string{"0", "1", "2", "3", "_"}
	for trial := 0; trial < 200; trial++ {
		rs := randomConsistentRuleset(t, rng, sch, 6)
		if rs.Len() == 0 {
			continue
		}
		r := NewRepairer(rs)
		for i := 0; i < 30; i++ {
			tup := schema.Tuple{
				vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))],
				vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))],
			}
			ref, _, _ := core.Fix(rs.Rules(), tup)
			ch, _ := r.RepairTuple(tup, Chase)
			ln, _ := r.RepairTuple(tup, Linear)
			if !ch.Equal(ref) || !ln.Equal(ref) {
				t.Fatalf("trial %d: disagree on %v\n ref=%v\n chase=%v\n linear=%v\n rules=%v",
					trial, tup, ref, ch, ln, rs.Rules())
			}
		}
	}
}

// TestAssuredAttributesNeverRewritten: once an attribute is repaired it must
// not change again within the same tuple (key dependability property).
func TestAssuredAttributesNeverRewritten(t *testing.T) {
	sch := schema.New("R", "a", "b", "c", "d")
	rng := rand.New(rand.NewSource(123))
	vals := []string{"0", "1", "2", "3", "_"}
	for trial := 0; trial < 100; trial++ {
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
			for _, alg := range []Algorithm{Chase, Linear} {
				_, steps := r.RepairTuple(tup, alg)
				seen := map[string]bool{}
				for _, s := range steps {
					if seen[s.Attr] {
						t.Fatalf("%v repaired attribute %s twice on %v", alg, s.Attr, tup)
					}
					seen[s.Attr] = true
				}
			}
		}
	}
}
