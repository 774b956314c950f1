// Package repair implements the paper's two data-repairing algorithms
// (Section 6):
//
//   - cRepair (Figure 6): the chase — repeatedly scan the unused rules for
//     one that properly applies; O(size(Σ)·|R|) per tuple.
//   - lRepair (Figure 7): a fast linear algorithm that interweaves inverted
//     lists (key (A, a) → rules with A ∈ Xφ and tp[A] = a) and hash
//     counters (c(φ) = number of evidence attributes of φ the tuple
//     currently agrees with); O(size(Σ)) per tuple.
//
// Both algorithms require a consistent ruleset; by the Church–Rosser
// property they then compute the same unique fix for every tuple.
//
// The implementation is a compiled engine (see compile.go): Σ's constants
// are interned into per-attribute dictionaries at construction, and both
// algorithms run on integer-coded tuples. The string-level semantics live
// in internal/core (Fix, ProperlyApplies, Apply) as the reference
// implementation the tests cross-check against.
package repair

import (
	"fmt"
	"sync"

	"fixrule/internal/consistency"
	"fixrule/internal/core"
	"fixrule/internal/schema"
)

// Algorithm selects a repairing strategy.
type Algorithm int

const (
	// Chase is cRepair (Figure 6).
	Chase Algorithm = iota
	// Linear is lRepair (Figure 7).
	Linear
)

// String names the algorithm as in the paper.
func (a Algorithm) String() string {
	switch a {
	case Chase:
		return "cRepair"
	case Linear:
		return "lRepair"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Repairer repairs tuples and relations with a fixed ruleset. The compiled
// form — dictionaries, integer rules, flat inverted lists — is built once
// at construction (it depends only on Σ, Section 6.2) and shared by all
// repairs; a Repairer is safe for concurrent use.
type Repairer struct {
	rs      *core.Ruleset
	rules   []*core.Rule
	c       *compiled
	needed  []int32 // |Xφ| per rule position
	scratch sync.Pool
}

// NewRepairer builds a Repairer over Σ, compiling the ruleset to integer
// form. It does not verify consistency; use NewRepairerChecked when the
// ruleset comes from an untrusted source.
func NewRepairer(rs *core.Ruleset) *Repairer {
	rules := rs.Rules()
	r := &Repairer{
		rs:     rs,
		rules:  rules,
		c:      compileRules(rs),
		needed: make([]int32, len(rules)),
	}
	for pos, rule := range rules {
		r.needed[pos] = int32(len(rule.EvidenceAttrs()))
	}
	n := len(rules)
	arity, words, nRel := r.c.arity, r.c.words, len(r.c.relevant)
	r.scratch.New = func() any {
		return &codedScratch{
			row:      make([]uint32, arity),
			assured:  make([]uint64, words),
			counters: make([]int32, n),
			checked:  make([]bool, n),
			encKeys:  make([]string, nRel<<encPageBits),
			encCodes: make([]uint32, nRel<<encPageBits),
		}
	}
	return r
}

// NewRepairerChecked is NewRepairer preceded by a consistency check with the
// rule-characterisation checker; it fails if Σ has conflicts, because repair
// results would then depend on application order.
func NewRepairerChecked(rs *core.Ruleset) (*Repairer, error) {
	if conf := consistency.IsConsistent(rs, consistency.ByRule); conf != nil {
		return nil, fmt.Errorf("repair: ruleset is inconsistent: %w", conf)
	}
	return NewRepairer(rs), nil
}

// Ruleset returns the Σ the repairer was built over.
func (r *Repairer) Ruleset() *core.Ruleset { return r.rs }

// RepairTuple repairs one tuple with the chosen algorithm. The input is not
// modified; the repaired tuple and the applied steps are returned.
//
// The tuple is dictionary-encoded into pooled scratch, repaired on codes,
// and materialised by writing each applied rule's fact over a clone of the
// input — decoding never needs a reverse dictionary because every changed
// cell holds a fact of Σ and every unchanged cell keeps its input string.
func (r *Repairer) RepairTuple(t schema.Tuple, alg Algorithm) (schema.Tuple, []core.Step) {
	sc := r.getScratch()
	r.c.encodeInto(t, sc.row)
	applied := r.repairEncoded(sc.row, sc, alg)
	fixed := t.Clone()
	var steps []core.Step
	if len(applied) > 0 {
		steps = make([]core.Step, len(applied))
		for i, pos := range applied {
			rule := r.rules[pos]
			idx := rule.TargetIndex()
			steps[i] = core.Step{Rule: rule, Attr: rule.Target(), From: fixed[idx], To: rule.Fact()}
			fixed[idx] = rule.Fact()
		}
	}
	r.putScratch(sc)
	return fixed, steps
}

// Result summarises a relation-level repair. Its embedded StreamStats
// carries the counts a stream reports, from the same fold: Rows, Repaired,
// Steps, OOV (Σ-relevant input cells outside the ruleset's vocabulary,
// counted before repair; see Repairer.OOVCells), OOVByAttr, and PerRule —
// how many errors each rule corrected, the quantity plotted in Figure
// 12(a).
type Result struct {
	StreamStats
	// Relation is the repaired relation. It is copy-on-write: rows no rule
	// changed are shared with the input relation, and only repaired rows are
	// fresh tuples. The input is never modified, but both relations must be
	// treated as frozen afterwards — writing through either one's tuples
	// would show through the other.
	Relation *schema.Relation
	// Changed lists every modified cell, in row then application order.
	Changed []schema.Cell
}
