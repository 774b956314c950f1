package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"fixrule/internal/consistency"
	"fixrule/internal/core"
	"fixrule/internal/dataset"
	"fixrule/internal/noise"
	"fixrule/internal/repair"
	"fixrule/internal/rulegen"
	"fixrule/internal/ruleio"
	"fixrule/internal/schema"
)

// relSpec describes one generated relation and the Σ mined from it.
type relSpec struct {
	// Dataset is "hosp" or "uis" (dataset.ByName).
	Dataset string
	// Rows sizes the clean relation.
	Rows int
	// Noise is the fraction of tuples corrupted; half of the corrupted
	// cells get typos, half active-domain errors (the paper's default mix).
	Noise float64
	// MaxRules caps the mined Σ (rulegen.Config.MaxRules).
	MaxRules int
}

// input is one generated relation with its Σ, the reference repair, and
// the files the programs under test receive.
type input struct {
	spec  relSpec
	dirty *schema.Relation
	rs    *core.Ruleset
	dsl   []byte
	csv   []byte
	rep   *repair.Repairer
	ref   *repair.Result
	// changedRows flags the rows the reference repair modified.
	changedRows []bool

	rulesPath, dataPath string
	hashes              map[string]string
}

// pairSample bounds the rule pairs on which isConsist_t is compared with
// isConsist_r. Tuple enumeration costs ~25µs a pair here, so a Σ of a few
// thousand rules (millions of pairs) cannot be enumerated in full within
// one run; Σs of up to this many pairs are checked exhaustively.
const pairSample = 10000

// generate builds the relation, injects noise, mines Σ from the same
// dirty relation, verifies Σ, computes the reference repair and writes the
// two files the programs under test read. All randomness derives from
// seed, so the same seed yields byte-identical files.
func generate(spec relSpec, seed int64, dir, name string) (*input, error) {
	d, err := dataset.ByName(spec.Dataset, spec.Rows, seed)
	if err != nil {
		return nil, err
	}
	dirty, _, err := noise.Inject(d.Rel, noise.Config{
		Rate: spec.Noise, TypoFraction: 0.5, Attrs: d.NoiseAttrs, Seed: seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("noise: %w", err)
	}
	rs, err := rulegen.MineConsistent(d.Rel, dirty, d.FDs, rulegen.Config{MaxRules: spec.MaxRules, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("mine: %w", err)
	}
	if err := checkTheorem1(rs, seed); err != nil {
		return nil, err
	}
	in := &input{spec: spec, dirty: dirty, rs: rs, hashes: map[string]string{}}
	in.dsl = []byte(ruleio.Format(rs))
	var buf bytes.Buffer
	if err := schema.WriteCSV(&buf, dirty); err != nil {
		return nil, err
	}
	in.csv = buf.Bytes()

	in.rep = repair.NewRepairer(rs)
	in.ref = in.rep.RepairRelation(dirty, repair.Linear)
	in.changedRows = make([]bool, dirty.Len())
	for _, c := range in.ref.Changed {
		in.changedRows[c.Row] = true
	}

	in.rulesPath = filepath.Join(dir, name+".dsl")
	in.dataPath = filepath.Join(dir, name+".csv")
	for path, data := range map[string][]byte{in.rulesPath: in.dsl, in.dataPath: in.csv} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
		in.hashes[filepath.Base(path)] = sha256Hex(data)
	}
	return in, nil
}

// checkTheorem1 asserts the precondition of the paper's Theorem 1 on Σ:
// isConsist_r (the Figure 4 characterisation, as NewRepairerChecked runs
// it) finds Σ consistent, and isConsist_t (tuple enumeration) agrees with
// isConsist_r on every rule pair, or on a seeded sample of pairSample
// pairs when Σ has more.
func checkTheorem1(rs *core.Ruleset, seed int64) error {
	if c := consistency.IsConsistent(rs, consistency.ByRule); c != nil {
		return fmt.Errorf("mined Σ is inconsistent under isConsist_r: %v", c)
	}
	rules := rs.Rules()
	n := len(rules)
	agree := func(i, j int) error {
		r := consistency.PairConsistentR(rules[i], rules[j]) == nil
		t := consistency.PairConsistentT(rules[i], rules[j]) == nil
		if r != t {
			return fmt.Errorf("isConsist_t (%v) and isConsist_r (%v) disagree on rules %s and %s",
				t, r, rules[i].Name(), rules[j].Name())
		}
		return nil
	}
	if n*(n-1)/2 <= pairSample {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if err := agree(i, j); err != nil {
					return err
				}
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < pairSample; k++ {
		i, j := rng.Intn(n), rng.Intn(n-1)
		if j >= i {
			j++
		}
		if err := agree(i, j); err != nil {
			return err
		}
	}
	return nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// refFullCSV is the whole reference relation rendered to CSV.
func (in *input) refFullCSV() ([]byte, error) {
	var buf bytes.Buffer
	if err := schema.WriteCSV(&buf, in.ref.Relation); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// repairedRows counts the rows the reference repair changed.
func (in *input) repairedRows() int {
	n := 0
	for _, c := range in.changedRows {
		if c {
			n++
		}
	}
	return n
}
