package repair

import (
	"fmt"
	"sort"
	"sync"

	"fixrule/internal/core"
	"fixrule/internal/repairlog"
)

// This file is the chase recorder: per-tuple provenance of which rules
// fired in what order, captured at the point a repaired value is
// materialised back into strings. The coded hot path (repairEncoded and
// friends, //fix:hotpath) is never touched — recording hangs off the
// existing write-back loops, guarded by a single nil check, so the
// disabled path stays 0 allocs/op.
//
// Why strings are safe to capture there: a rule only fires when the
// target's current code matches a negative pattern, and containsCode never
// matches the OOV code — so the pre-write value of every applied step is
// an in-vocabulary string, byte-identical to what a repairlog would
// record. That equivalence is what the server's /debug/traces ↔ repairlog
// property test asserts.

// A TraceStep is one rule application on one tuple, in Explain vocabulary.
type TraceStep struct {
	// RuleIndex is the rule's position in Σ (see Repairer.RuleAt).
	RuleIndex int `json:"rule_index"`
	// Rule is the rule's name.
	Rule string `json:"rule"`
	// Evidence lists the attribute=value pairs the rule matched on.
	Evidence []string `json:"evidence,omitempty"`
	// Attr is the repaired attribute; From the negative-pattern value it
	// held; To the fact written.
	Attr string `json:"attr"`
	From string `json:"from"`
	To   string `json:"to"`
	// Assured lists the attributes validated correct after this step — the
	// assured-set evolution of the chase (evidence ∪ targets of the applied
	// prefix), sorted.
	Assured []string `json:"assured,omitempty"`
}

// A TupleTrace is the ordered rule-application sequence of one repaired
// tuple.
type TupleTrace struct {
	// Row is the 0-based row number in the repaired relation or stream.
	Row int `json:"row"`
	// Steps are the applications in chase order.
	Steps []TraceStep `json:"steps"`
}

// DefaultRecorderTuples caps recorded tuples when the caller does not
// choose: enough to diagnose a request, small enough that a sampled
// million-row stream cannot hold the whole chase history in memory.
const DefaultRecorderTuples = 256

// droppedSetMax bounds the exact distinct-dropped-row set. The cap exists
// so a capped recorder's memory is O(cap), not O(changed rows) — tracking
// every dropped row in a set would reintroduce exactly the unbounded
// growth the tuple cap prevents. Past this bound, drops are counted once
// per recorded step instead (an overcount for multi-step tuples).
const droppedSetMax = 4 * DefaultRecorderTuples

// A ChaseRecorder collects TupleTraces from a repair run. It is handed to
// the Recorded repair variants (and StreamOptions.Recorder); a nil
// recorder is free. Recording locks a mutex, but only for tuples that were
// actually changed on sampled rows, so throughput impact tracks the error
// rate, not the row rate. Safe for concurrent use by parallel workers.
type ChaseRecorder struct {
	max  int
	rate float64
	seed uint64

	mu    sync.Mutex
	rows  map[int]*TupleTrace
	order []int
	// dropped tracks distinct rows the tuple cap rejected, exact up to
	// droppedSetMax entries; droppedOverflow counts the steps rejected
	// after the set filled, so memory stays bounded on any input.
	dropped         map[int]struct{}
	droppedOverflow int
}

// NewChaseRecorder builds a recorder. maxTuples caps how many distinct
// tuples are recorded (0 selects a default of 256; negative is unlimited —
// the streaming -log path needs every change). sampleRate in [0, 1]
// selects which rows are recorded, deterministically per row number from
// seed, so reruns over the same data record the same tuples.
func NewChaseRecorder(maxTuples int, sampleRate float64, seed uint64) *ChaseRecorder {
	if maxTuples == 0 {
		maxTuples = DefaultRecorderTuples
	}
	if sampleRate > 1 {
		sampleRate = 1
	}
	return &ChaseRecorder{
		max:     maxTuples,
		rate:    sampleRate,
		seed:    seed,
		rows:    make(map[int]*TupleTrace),
		dropped: make(map[int]struct{}),
	}
}

// splitmix64 is the per-row hash behind deterministic sampling.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// SampleRow reports whether a recorder built with (sampleRate, seed)
// records the given row. Deterministic in (seed, row), so parallel and
// sequential runs record identical sets; exported so callers holding a
// rate-1 recorder (fixrepair's streaming -log path) can re-apply a
// stricter trace sampling to the captured tuples at print time.
func SampleRow(row int, sampleRate float64, seed uint64) bool {
	if sampleRate >= 1 {
		return true
	}
	if sampleRate <= 0 {
		return false
	}
	return float64(splitmix64(seed^uint64(row))>>11)/(1<<53) < sampleRate
}

// sampledRow decides whether a row is recorded.
func (cr *ChaseRecorder) sampledRow(row int) bool {
	return SampleRow(row, cr.rate, cr.seed)
}

// record captures one rule application. old must be the target cell's
// value immediately before the fact is written. Callers only invoke it for
// rows with at least one applied rule, inside their existing write-back
// loops — never from the coded hot path.
func (cr *ChaseRecorder) record(row int, pos int32, rule *core.Rule, old string) {
	if !cr.sampledRow(row) {
		return
	}
	cr.mu.Lock()
	defer cr.mu.Unlock()
	tt := cr.rows[row]
	if tt == nil {
		if cr.max >= 0 && len(cr.order) >= cr.max {
			if _, seen := cr.dropped[row]; !seen {
				if len(cr.dropped) < droppedSetMax {
					cr.dropped[row] = struct{}{}
				} else {
					cr.droppedOverflow++
				}
			}
			return
		}
		tt = &TupleTrace{Row: row}
		cr.rows[row] = tt
		cr.order = append(cr.order, row)
	}
	step := TraceStep{
		RuleIndex: int(pos),
		Rule:      rule.Name(),
		Attr:      rule.Target(),
		From:      old,
		To:        rule.Fact(),
	}
	// Assured evolution: previous step's assured set ∪ this rule's
	// evidence attributes ∪ its target, kept sorted.
	assured := map[string]struct{}{}
	if n := len(tt.Steps); n > 0 {
		for _, a := range tt.Steps[n-1].Assured {
			assured[a] = struct{}{}
		}
	}
	for _, a := range rule.EvidenceAttrs() {
		v, _ := rule.EvidenceValue(a)
		step.Evidence = append(step.Evidence, fmt.Sprintf("%s=%q", a, v))
		assured[a] = struct{}{}
	}
	assured[rule.Target()] = struct{}{}
	step.Assured = make([]string, 0, len(assured))
	for a := range assured {
		step.Assured = append(step.Assured, a)
	}
	sort.Strings(step.Assured)
	tt.Steps = append(tt.Steps, step)
}

// Tuples returns the recorded traces sorted by row, steps in application
// order. The result is a snapshot; recording may continue afterwards.
func (cr *ChaseRecorder) Tuples() []TupleTrace {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	rows := make([]int, len(cr.order))
	copy(rows, cr.order)
	sort.Ints(rows)
	out := make([]TupleTrace, 0, len(rows))
	for _, r := range rows {
		out = append(out, *cr.rows[r])
	}
	return out
}

// DroppedTuples reports how many changed tuples the cap discarded. The
// count is exact (distinct rows) until droppedSetMax distinct rows have
// been dropped; beyond that it is an upper bound, since further drops are
// counted once per rejected step rather than deduplicated by row.
func (cr *ChaseRecorder) DroppedTuples() int {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return len(cr.dropped) + cr.droppedOverflow
}

// Len reports how many tuples have been recorded.
func (cr *ChaseRecorder) Len() int {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return len(cr.order)
}

// Log converts the recorded steps into repairlog entries, ordered by row
// then application order — exactly the entries a batch repair of the same
// data would log. Only meaningful when the recorder saw every change
// (sampleRate 1, unlimited tuples); the streaming -log path relies on
// this.
func (cr *ChaseRecorder) Log() []repairlog.Entry {
	tuples := cr.Tuples()
	var entries []repairlog.Entry
	for _, tt := range tuples {
		for _, s := range tt.Steps {
			entries = append(entries, repairlog.Entry{Row: tt.Row, Attr: s.Attr, Old: s.From, New: s.To})
		}
	}
	return entries
}
