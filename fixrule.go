// Package fixrule is the public API of this repository: an implementation
// of "Towards Dependable Data Repairing with Fixing Rules" (Wang & Tang,
// SIGMOD 2014).
//
// A fixing rule precisely captures which attribute of a tuple is wrong and
// what value it should take: an evidence pattern over attributes X, a set
// of negative patterns for a target attribute B, and a fact — the correct
// value of B given the evidence. Given a consistent set of fixing rules,
// repairs are automatic, deterministic, and dependable: every tuple has a
// unique fix regardless of rule application order.
//
// The package wraps the internal implementation with a stable surface:
//
//   - schemas, tuples and relations (NewSchema, NewRelation, LoadCSV);
//   - rule construction and the rule DSL (NewRule, ParseRules);
//   - consistency checking and resolution (CheckConsistency, Resolve);
//   - implication / redundancy analysis (Implies, Minimize);
//   - repairing (NewRepairer with the Chase and Linear algorithms);
//   - FD-based rule mining (MineRules, EnrichRules) and accuracy scoring
//     (Evaluate).
//
// See examples/quickstart for the paper's running Travel example.
package fixrule

import (
	"fixrule/internal/consistency"
	"fixrule/internal/core"
	"fixrule/internal/fd"
	"fixrule/internal/fddisc"
	"fixrule/internal/implication"
	"fixrule/internal/metrics"
	"fixrule/internal/repair"
	"fixrule/internal/rulegen"
	"fixrule/internal/ruleio"
	"fixrule/internal/schema"
)

// Re-exported relational building blocks.
type (
	// Schema is a relation schema R: a named, ordered attribute list.
	Schema = schema.Schema
	// Tuple is one row; values are positional strings.
	Tuple = schema.Tuple
	// Relation is an in-memory table over a Schema.
	Relation = schema.Relation
	// Cell addresses one value in a Relation.
	Cell = schema.Cell
)

// Re-exported fixing-rule types.
type (
	// Rule is a fixing rule φ: ((X, tp[X]), (B, Tp[B])) → tp+[B].
	Rule = core.Rule
	// Ruleset is an ordered set Σ of fixing rules over one schema.
	Ruleset = core.Ruleset
	// Step records one rule application during a repair.
	Step = core.Step
	// Conflict explains why two rules are inconsistent.
	Conflict = consistency.Conflict
	// Repairer repairs tuples and relations with a fixed ruleset.
	Repairer = repair.Repairer
	// RepairResult summarises a relation-level repair.
	RepairResult = repair.Result
	// Scores holds precision/recall/F1 against ground truth.
	Scores = metrics.Scores
	// FD is a functional dependency X → Y, the substrate rules are mined
	// from.
	FD = fd.FD
)

// Repair algorithm selectors (Section 6 of the paper).
const (
	// Chase is cRepair: the chase-based algorithm, O(size(Σ)·|R|) per
	// tuple.
	Chase = repair.Chase
	// Linear is lRepair: inverted lists + hash counters, O(size(Σ)) per
	// tuple.
	Linear = repair.Linear
)

// NewSchema builds a schema; it panics on duplicate or empty attribute
// names (a malformed schema is a programming error).
func NewSchema(name string, attrs ...string) *Schema { return schema.New(name, attrs...) }

// NewRelation creates an empty relation over s.
func NewRelation(s *Schema) *Relation { return schema.NewRelation(s) }

// LoadCSV reads a relation in the given schema from a CSV file whose header
// matches the schema.
func LoadCSV(path string, s *Schema) (*Relation, error) { return schema.LoadCSV(path, s) }

// SaveCSV writes a relation to a CSV file with a header row.
func SaveCSV(path string, r *Relation) error { return schema.SaveCSV(path, r) }

// NewRule validates and constructs a fixing rule: evidence tp[X], target B,
// negative patterns Tp[B] and fact tp+[B].
func NewRule(name string, sch *Schema, evidence map[string]string, target string, negative []string, fact string) (*Rule, error) {
	return core.New(name, sch, evidence, target, negative, fact)
}

// NewRuleset creates an empty ruleset over sch.
func NewRuleset(sch *Schema) *Ruleset { return core.NewRuleset(sch) }

// RulesetOf creates a ruleset from rules sharing one schema.
func RulesetOf(rules ...*Rule) (*Ruleset, error) { return core.NewRulesetOf(rules...) }

// ParseRules reads a ruleset from the rule DSL (SCHEMA declaration followed
// by RULE blocks); see package internal/ruleio for the grammar.
func ParseRules(src string) (*Ruleset, error) { return ruleio.Parse(src) }

// ParseRulesWith reads DSL RULE blocks against an existing schema.
func ParseRulesWith(src string, sch *Schema) (*Ruleset, error) { return ruleio.ParseWith(src, sch) }

// FormatRules renders a ruleset in the DSL; the output parses back.
func FormatRules(rs *Ruleset) string { return ruleio.Format(rs) }

// MarshalRulesJSON encodes a ruleset (with schema) as JSON.
func MarshalRulesJSON(rs *Ruleset) ([]byte, error) { return ruleio.MarshalJSON(rs) }

// UnmarshalRulesJSON decodes a ruleset produced by MarshalRulesJSON.
func UnmarshalRulesJSON(data []byte) (*Ruleset, error) { return ruleio.UnmarshalJSON(data) }

// CheckConsistency decides whether Σ is conflict-free using the paper's
// O(size(Σ)²) rule-characterisation checker. It returns nil when every
// tuple has a unique fix, else the first conflict found.
func CheckConsistency(rs *Ruleset) *Conflict {
	return consistency.IsConsistent(rs, consistency.ByRule)
}

// AllConflicts returns every conflicting rule pair in Σ.
func AllConflicts(rs *Ruleset) []*Conflict {
	return consistency.AllConflicts(rs, consistency.ByRule)
}

// CheckAddition decides whether adding one rule to an already-consistent Σ
// preserves consistency, checking only the new pairs — O(size(Σ)) instead
// of O(size(Σ)²). Intended for interactive rule authoring.
func CheckAddition(rs *Ruleset, r *Rule) *Conflict {
	return consistency.CheckAddition(rs, r, consistency.ByRule)
}

// ResolveStrategy selects how Resolve repairs an inconsistent ruleset.
type ResolveStrategy int

const (
	// TrimNegatives removes exactly the negative patterns that cause each
	// conflict (the paper's expert edit), dropping a rule only when its
	// negatives are exhausted.
	TrimNegatives ResolveStrategy = iota
	// RemoveConflicting drops every rule involved in a conflict (the
	// conservative strategy).
	RemoveConflicting
	// MinimumRemoval drops a greedy minimum vertex cover of the conflict
	// graph: the fewest rules whose removal makes Σ consistent.
	MinimumRemoval
)

// Resolve returns a consistent revision of Σ using the chosen strategy,
// plus the names of the rules that were edited or removed. The input is
// not modified.
func Resolve(rs *Ruleset, strategy ResolveStrategy) (*Ruleset, []string, error) {
	if strategy == MinimumRemoval {
		fixed, removed := consistency.ResolveByMinCover(rs, consistency.ByRule)
		return fixed, removed, nil
	}
	var r consistency.Resolver = consistency.TrimNegatives{}
	if strategy == RemoveConflicting {
		r = consistency.RemoveBoth{}
	}
	fixed, edits, err := consistency.ResolveAll(rs, r, consistency.ByRule)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(edits))
	for i, e := range edits {
		names[i] = e.Name
	}
	return fixed, names, nil
}

// Implies decides whether Σ implies φ (φ is redundant): Σ ∪ {φ} is
// consistent and repairs every tuple identically to Σ. Σ must itself be
// consistent.
func Implies(rs *Ruleset, phi *Rule) (bool, error) {
	res, err := implication.Implies(rs, phi, implication.Options{})
	if err != nil {
		return false, err
	}
	return res.Implied, nil
}

// Minimize removes implied rules from Σ, returning the minimized set and
// the dropped rule names.
func Minimize(rs *Ruleset) (*Ruleset, []string, error) {
	return implication.Minimize(rs, implication.Options{})
}

// NewRepairer builds a repairer over Σ after verifying Σ is consistent —
// the precondition for unique fixes.
func NewRepairer(rs *Ruleset) (*Repairer, error) { return repair.NewRepairerChecked(rs) }

// Explanation is the provenance of one tuple's repair: every applied rule,
// the evidence that justified it, and the assured attributes. Produce one
// with Repairer.Explain.
type Explanation = repair.Explanation

// StreamStats summarises a Repairer.Stream run.
type StreamStats = repair.StreamStats

// StreamOptions configures Repairer.Stream: input and output formats (CSV,
// the zero value, or Fcol), worker count, rows per pipeline chunk,
// optional occupancy gauges, and an optional ChaseRecorder. The output
// bytes and StreamStats are identical at any worker count and chunk size.
type StreamOptions = repair.StreamOptions

// Format names a stream encoding for StreamOptions.In and Out.
type Format = repair.Format

// The stream formats: CSV text with a header row, and the columnar fcol
// chunk format. frel is a batch format and does not stream.
const (
	CSV  = repair.CSV
	Fcol = repair.Fcol
)

// ChaseRecorder captures per-tuple chase traces — which rules fired on
// which rows, in what order, with the assured-set evolution — from the
// Recorded repair variants and Repairer.Stream (StreamOptions.Recorder). A
// nil recorder is free. With an unlimited tuple cap the recorded rows are
// deterministic in (seed, sample rate), identical at any worker count;
// with a finite cap, which sampled rows land under the cap follows worker
// arrival order.
type ChaseRecorder = repair.ChaseRecorder

// DefaultRecorderTuples is the tuple cap NewChaseRecorder applies when
// maxTuples is 0.
const DefaultRecorderTuples = repair.DefaultRecorderTuples

// SampleRow reports whether a recorder built with (sampleRate, seed)
// would record the given row — the deterministic per-row decision behind
// ChaseRecorder sampling, exposed for callers that need to re-apply it.
func SampleRow(row int, sampleRate float64, seed uint64) bool {
	return repair.SampleRow(row, sampleRate, seed)
}

// TupleTrace is one recorded tuple's ordered rule-application sequence.
type TupleTrace = repair.TupleTrace

// TraceStep is one rule application inside a TupleTrace, in the Explain
// vocabulary (rule, evidence, attribute, old → new, assured set).
type TraceStep = repair.TraceStep

// NewChaseRecorder builds a recorder: maxTuples caps distinct recorded
// tuples (0 = a 256 default, negative = unlimited), sampleRate in [0, 1]
// picks rows deterministically from seed.
func NewChaseRecorder(maxTuples int, sampleRate float64, seed uint64) *ChaseRecorder {
	return repair.NewChaseRecorder(maxTuples, sampleRate, seed)
}

// ParseFD reads an FD in the notation "A, B -> C, D".
func ParseFD(sch *Schema, s string) (*FD, error) { return fd.Parse(sch, s) }

// DiscoverFDs mines minimal functional dependencies from data with a
// TANE-style levelwise search: determinants up to maxLHS attributes, and
// approximate FDs admitted while their g3 error (the fraction of tuples
// that would need deleting for the FD to hold) stays within maxError.
// Run it on dirty data with maxError around the expected noise rate to
// bootstrap the fully autonomous pipeline: DiscoverFDs → DiscoverRules →
// repair, with no expert input at all.
func DiscoverFDs(rel *Relation, maxLHS int, maxError float64) ([]*FD, error) {
	ds, err := fddisc.Discover(rel, fddisc.Config{MaxLHS: maxLHS, MaxError: maxError})
	if err != nil {
		return nil, err
	}
	return fddisc.Merge(ds), nil
}

// FDViolationCount returns the number of violated (FD, LHS group, attribute)
// combinations in rel.
func FDViolationCount(rel *Relation, fds []*FD) int { return len(fd.Violations(rel, fds)) }

// MineRules extracts fixing rules from the FD violations of dirty, using
// truth as the certifying expert, resolves any conflicts among them, and
// returns a consistent ruleset. maxRules caps the output (0 = unlimited);
// seed drives sampling.
func MineRules(truth, dirty *Relation, fds []*FD, maxRules int, seed int64) (*Ruleset, error) {
	return rulegen.MineConsistent(truth, dirty, fds, rulegen.Config{MaxRules: maxRules, Seed: seed})
}

// EnrichRules enlarges every rule's negative patterns with up to perRule
// known-wrong values from the domain relation, preserving consistency.
func EnrichRules(rs *Ruleset, domain *Relation, perRule int, seed int64) (*Ruleset, error) {
	return rulegen.Enrich(rs, domain, perRule, seed)
}

// DiscoverOptions tunes unsupervised rule discovery (the paper's Section 8
// future-work item, implemented here): majority support and confidence
// thresholds stand in for the expert, and the deviation bound filters out
// tuples whose LHS — rather than RHS — is corrupted.
type DiscoverOptions = rulegen.DiscoverConfig

// DiscoverRules mines fixing rules from dirty data alone — no ground truth
// and no expert — using majority voting within FD violation groups. The
// returned ruleset is consistent. Less dependable than MineRules, but
// usable when no reference data exists.
func DiscoverRules(dirty *Relation, fds []*FD, opts DiscoverOptions) (*Ruleset, error) {
	return rulegen.Discover(dirty, fds, opts)
}

// MasterSpec maps a master relation onto the data schema for
// RulesFromMaster: evidence attributes (data → master) plus the repaired
// attribute and its master column.
type MasterSpec = rulegen.MasterSpec

// RulesFromMaster mines fixing rules from a trusted master relation plus
// observed deviations in the dirty data — editing rules' master-data
// justification compiled into autonomous rules, with the conservative
// guard that a value the master knows as correct anywhere is never
// harvested as a negative pattern.
func RulesFromMaster(dirty, master *Relation, spec MasterSpec, maxRules int, seed int64) (*Ruleset, error) {
	return rulegen.FromMaster(dirty, master, spec, rulegen.Config{MaxRules: maxRules, Seed: seed})
}

// CFD is a conditional functional dependency (X → Y, tp).
type CFD = fd.CFD

// NewCFD builds a CFD over f with the given pattern tuple; pattern values
// are constants or "_" (any).
func NewCFD(f *FD, pattern map[string]string) (*CFD, error) { return fd.NewCFD(f, pattern) }

// ParseCFD reads a CFD in the notation
// "country -> capital, (country=China, capital=Beijing)".
func ParseCFD(sch *Schema, s string) (*CFD, error) { return fd.ParseCFD(sch, s) }

// RulesFromCFDs converts constant CFDs into fixing rules (the paper's
// "interaction with other data quality rules" direction): the CFD's RHS
// constant is the fact, its constant LHS pattern the evidence, and its
// violations in dirty supply the negative patterns.
func RulesFromCFDs(dirty *Relation, cfds []*CFD, maxRules int, seed int64) (*Ruleset, error) {
	return rulegen.FromCFDs(dirty, cfds, rulegen.Config{MaxRules: maxRules, Seed: seed})
}

// Evaluate scores a repair against ground truth using the paper's
// precision/recall definitions.
func Evaluate(truth, dirty, repaired *Relation) Scores {
	return metrics.Evaluate(truth, dirty, repaired)
}
