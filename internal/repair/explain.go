package repair

import (
	"fmt"
	"strings"

	"fixrule/internal/core"
	"fixrule/internal/schema"
)

// Explanation is the full provenance of one tuple's repair: every applied
// rule, the evidence that justified it, the negative pattern matched, and
// the resulting assured attributes. It answers the question dependable
// repairing is about — *why* was this cell changed?
type Explanation struct {
	// Input and Output are the tuple before and after repair.
	Input, Output schema.Tuple
	// Steps explains each rule application, in order.
	Steps []StepExplanation
	// Assured lists the attributes validated correct by the repair.
	Assured []string
}

// StepExplanation explains one rule application.
type StepExplanation struct {
	Rule *core.Rule
	// Evidence lists the attribute=value pairs the rule matched on.
	Evidence []string
	// Attr is the repaired attribute; From the negative-pattern value it
	// held; To the fact written.
	Attr, From, To string
}

// Changed reports whether the repair modified the tuple at all.
func (e *Explanation) Changed() bool { return len(e.Steps) > 0 }

// String renders the explanation as a multi-line human-readable report.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "input:  %v\n", []string(e.Input))
	if !e.Changed() {
		b.WriteString("no rule properly applies: tuple left unchanged\n")
		return b.String()
	}
	for i, s := range e.Steps {
		fmt.Fprintf(&b, "step %d: rule %s\n", i+1, s.Rule.Name())
		fmt.Fprintf(&b, "        evidence %s\n", strings.Join(s.Evidence, ", "))
		fmt.Fprintf(&b, "        %s = %q matches a negative pattern; corrected to %q\n",
			s.Attr, s.From, s.To)
	}
	fmt.Fprintf(&b, "output: %v\n", []string(e.Output))
	fmt.Fprintf(&b, "assured attributes: %s\n", strings.Join(e.Assured, ", "))
	return b.String()
}

// evidencePairs renders a rule's evidence as attr="value" pairs, in
// evidence-attribute order: the Evidence of a StepExplanation and of a
// TraceStep.
func evidencePairs(rule *core.Rule) []string {
	var pairs []string
	for _, a := range rule.EvidenceAttrs() {
		v, _ := rule.EvidenceValue(a)
		pairs = append(pairs, fmt.Sprintf("%s=%q", a, v))
	}
	return pairs
}

// Explain repairs t with the chosen algorithm and returns the full
// provenance. The input tuple is not modified.
func (r *Repairer) Explain(t schema.Tuple, alg Algorithm) *Explanation {
	fixed, steps := r.RepairTuple(t, alg)
	e := &Explanation{Input: t.Clone(), Output: fixed}
	assured := map[string]struct{}{}
	for _, s := range steps {
		for _, a := range s.Rule.EvidenceAttrs() {
			assured[a] = struct{}{}
		}
		assured[s.Attr] = struct{}{}
		e.Steps = append(e.Steps, StepExplanation{
			Rule: s.Rule, Evidence: evidencePairs(s.Rule),
			Attr: s.Attr, From: s.From, To: s.To,
		})
	}
	for _, a := range r.rs.Schema().Attrs() {
		if _, ok := assured[a]; ok {
			e.Assured = append(e.Assured, a)
		}
	}
	return e
}
