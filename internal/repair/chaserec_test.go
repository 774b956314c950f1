package repair

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fixrule/internal/repairlog"
	"fixrule/internal/schema"
	"fixrule/internal/store"
)

// TestChaseRecorderMatchesRepairlog: with full sampling and no cap, the
// recorder's Log() must be exactly the repairlog a batch repair derives
// from Result.Changed — the equivalence the /debug/traces property test
// builds on.
func TestChaseRecorderMatchesRepairlog(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := fig1Relation()
	for _, alg := range []Algorithm{Chase, Linear} {
		rec := NewChaseRecorder(-1, 1, 0)
		res := r.RepairRelationRecorded(rel, alg, rec)
		want := repairlog.FromResult(rel, res.Relation, res.Changed)
		got := rec.Log()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: recorder log = %+v, want %+v", alg, got, want)
		}
	}
}

// TestChaseRecorderStepContents checks one known cascade (Figure 8, tuple
// r2) in full: rule order, old→new values, evidence, and the assured-set
// evolution.
func TestChaseRecorderStepContents(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := fig1Relation()
	rec := NewChaseRecorder(-1, 1, 0)
	r.RepairRelationRecorded(rel, Linear, rec)
	tuples := rec.Tuples()
	if len(tuples) != 3 {
		t.Fatalf("recorded %d tuples, want 3 (rows 1..3)", len(tuples))
	}
	ian := tuples[0]
	if ian.Row != 1 || len(ian.Steps) != 2 {
		t.Fatalf("ian trace = %+v", ian)
	}
	s0, s1 := ian.Steps[0], ian.Steps[1]
	if s0.Rule != "phi1" || s0.Attr != "capital" || s0.From != "Shanghai" || s0.To != "Beijing" {
		t.Errorf("step 0 = %+v", s0)
	}
	if s1.Rule != "phi4" || s1.Attr != "city" || s1.From != "Hongkong" || s1.To != "Shanghai" {
		t.Errorf("step 1 = %+v", s1)
	}
	if len(s0.Evidence) != 1 || s0.Evidence[0] != `country="China"` {
		t.Errorf("step 0 evidence = %v", s0.Evidence)
	}
	if want := []string{"capital", "country"}; !reflect.DeepEqual(s0.Assured, want) {
		t.Errorf("step 0 assured = %v, want %v", s0.Assured, want)
	}
	// After φ4 the assured set has grown by φ4's evidence (capital, conf)
	// and target (city).
	if want := []string{"capital", "city", "conf", "country"}; !reflect.DeepEqual(s1.Assured, want) {
		t.Errorf("step 1 assured = %v, want %v", s1.Assured, want)
	}
	if r.RuleAt(s0.RuleIndex).Name() != "phi1" {
		t.Errorf("RuleIndex %d does not resolve to phi1", s0.RuleIndex)
	}
}

// skewedCSV builds a CSV with dirty tuples sprinkled deterministically, and
// returns the row numbers that should be repaired.
func skewedCSV(rows int) (string, []int) {
	var b strings.Builder
	cw := csv.NewWriter(&b)
	cw.Write([]string{"name", "country", "capital", "city", "conf"})
	var dirty []int
	for i := 0; i < rows; i++ {
		switch {
		case i%7 == 1:
			cw.Write([]string{fmt.Sprintf("p%d", i), "China", "Shanghai", "Hongkong", "ICDE"})
			dirty = append(dirty, i)
		case i%11 == 4:
			cw.Write([]string{fmt.Sprintf("p%d", i), "China", "Tokyo", "Tokyo", "ICDE"})
			dirty = append(dirty, i)
		default:
			cw.Write([]string{fmt.Sprintf("p%d", i), "China", "Beijing", "Beijing", "SIGMOD"})
		}
	}
	cw.Flush()
	return b.String(), dirty
}

// TestChaseRecorderStreamingRowsExact: streaming recorders must key traces
// by global input row at any worker count, and the recorded set must be
// identical (sequential, parallel, and batch all agree).
func TestChaseRecorderStreamingRowsExact(t *testing.T) {
	r := NewRepairer(paperRuleset())
	input, dirty := skewedCSV(1500)

	seqRec := NewChaseRecorder(-1, 1, 0)
	var seqOut bytes.Buffer
	if _, err := r.Stream(context.Background(), strings.NewReader(input), &seqOut, Linear,
		StreamOptions{Workers: 1, ChunkRows: 64, Recorder: seqRec}); err != nil {
		t.Fatal(err)
	}
	var rows []int
	for _, tt := range seqRec.Tuples() {
		rows = append(rows, tt.Row)
	}
	if !reflect.DeepEqual(rows, dirty) {
		t.Fatalf("sequential recorded rows = %v, want %v", rows, dirty)
	}

	for _, workers := range []int{2, 3, 8} {
		parRec := NewChaseRecorder(-1, 1, 0)
		var parOut bytes.Buffer
		opts := StreamOptions{Workers: workers, ChunkRows: 64, Recorder: parRec}
		if _, err := r.Stream(context.Background(), strings.NewReader(input), &parOut, Linear, opts); err != nil {
			t.Fatal(err)
		}
		if parOut.String() != seqOut.String() {
			t.Fatalf("workers=%d: output differs from sequential", workers)
		}
		if !reflect.DeepEqual(parRec.Tuples(), seqRec.Tuples()) {
			t.Fatalf("workers=%d: recorded traces differ from sequential", workers)
		}
	}
}

// TestStreamLogRevertRoundTrip: the streaming path's repair log (recorder
// with full sampling) must revert the streamed output back to the
// byte-identical original — the dependability property -log promises.
func TestStreamLogRevertRoundTrip(t *testing.T) {
	r := NewRepairer(paperRuleset())
	input, _ := skewedCSV(700)
	for _, workers := range []int{1, 4} {
		rec := NewChaseRecorder(-1, 1, 0)
		var out bytes.Buffer
		_, err := r.Stream(context.Background(), strings.NewReader(input), &out,
			Linear, StreamOptions{Workers: workers, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		if out.String() == input {
			t.Fatal("fixture must actually change under repair")
		}
		repaired, err := readCSVRelation(t, out.String())
		if err != nil {
			t.Fatal(err)
		}
		if err := repairlog.Revert(repaired, rec.Log()); err != nil {
			t.Fatalf("workers=%d: revert: %v", workers, err)
		}
		var restored bytes.Buffer
		writeCSVRelation(t, &restored, repaired)
		if restored.String() != input {
			t.Fatalf("workers=%d: reverted stream output is not byte-identical to the input", workers)
		}
	}
}

func readCSVRelation(t *testing.T, s string) (*schema.Relation, error) {
	t.Helper()
	cr := csv.NewReader(strings.NewReader(s))
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	rel := schema.NewRelation(travel())
	for _, rec := range recs[1:] {
		rel.Append(schema.Tuple(rec))
	}
	return rel, nil
}

func writeCSVRelation(t *testing.T, w *bytes.Buffer, rel *schema.Relation) {
	t.Helper()
	cw := csv.NewWriter(w)
	cw.Write(rel.Schema().Attrs())
	for i := 0; i < rel.Len(); i++ {
		cw.Write([]string(rel.Row(i)))
	}
	cw.Flush()
}

// TestChaseRecorderSamplingDeterministic: the per-row decision is a pure
// function of (seed, row) — reruns and worker counts cannot change which
// tuples are recorded — and different seeds pick different subsets.
func TestChaseRecorderSamplingDeterministic(t *testing.T) {
	r := NewRepairer(paperRuleset())
	input, dirty := skewedCSV(1500)
	runRows := func(seed uint64, workers int) []int {
		rec := NewChaseRecorder(-1, 0.4, seed)
		var out bytes.Buffer
		_, err := r.Stream(context.Background(), strings.NewReader(input), &out,
			Linear, StreamOptions{Workers: workers, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		rows := []int{}
		for _, tt := range rec.Tuples() {
			rows = append(rows, tt.Row)
		}
		return rows
	}
	a, b, par := runRows(42, 1), runRows(42, 1), runRows(42, 4)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, par) {
		t.Fatal("sampling must be deterministic across runs and worker counts")
	}
	if len(a) == 0 || len(a) >= len(dirty) {
		t.Fatalf("rate 0.4 should record a strict subset: %d of %d", len(a), len(dirty))
	}
	if reflect.DeepEqual(a, runRows(43, 1)) {
		t.Fatal("different seeds should sample different rows")
	}
	if got := runRows(42, 1); len(got) == 0 {
		t.Fatal("sanity")
	}
	if rows := func() []int {
		rec := NewChaseRecorder(-1, 0, 0)
		var out bytes.Buffer
		if _, err := r.Stream(context.Background(), strings.NewReader(input), &out, Linear, StreamOptions{Recorder: rec}); err != nil {
			t.Fatal(err)
		}
		var rr []int
		for _, tt := range rec.Tuples() {
			rr = append(rr, tt.Row)
		}
		return rr
	}(); len(rows) != 0 {
		t.Fatal("rate 0 must record nothing")
	}
}

// TestChaseRecorderCap: the tuple cap bounds memory and reports drops.
func TestChaseRecorderCap(t *testing.T) {
	r := NewRepairer(paperRuleset())
	input, dirty := skewedCSV(300)
	rec := NewChaseRecorder(2, 1, 0)
	var out bytes.Buffer
	if _, err := r.Stream(context.Background(), strings.NewReader(input), &out, Linear,
		StreamOptions{Workers: 1, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 2 {
		t.Fatalf("recorded %d tuples, want cap 2", rec.Len())
	}
	if want := len(dirty) - 2; rec.DroppedTuples() != want {
		t.Fatalf("dropped = %d, want %d", rec.DroppedTuples(), want)
	}
	got := rec.Tuples()
	if got[0].Row != dirty[0] || got[1].Row != dirty[1] {
		t.Fatalf("cap must keep the first tuples seen, got rows %d,%d", got[0].Row, got[1].Row)
	}
}

// TestChaseRecorderDroppedBounded: once the tuple cap is hit, the drop
// accounting itself must stay bounded — the exact distinct-row set stops
// growing at droppedSetMax and later drops fall into an overflow counter,
// so a capped recorder on a huge stream is O(cap), not O(changed rows).
func TestChaseRecorderDroppedBounded(t *testing.T) {
	rule := NewRepairer(paperRuleset()).rules[0]
	rec := NewChaseRecorder(1, 1, 0)
	rec.record(0, 0, rule, "x") // fills the cap
	const extra = 100
	for row := 1; row <= droppedSetMax+extra; row++ {
		// Two steps per row: inside the set duplicates are deduplicated;
		// past it each step counts, so the total is an upper bound.
		rec.record(row, 0, rule, "x")
		rec.record(row, 0, rule, "x")
	}
	if got := len(rec.dropped); got != droppedSetMax {
		t.Fatalf("dropped set grew to %d, want bound %d", got, droppedSetMax)
	}
	if got := rec.DroppedTuples(); got < droppedSetMax+extra {
		t.Fatalf("DroppedTuples = %d, want >= %d distinct drops", got, droppedSetMax+extra)
	}
	if rec.Len() != 1 {
		t.Fatalf("recorded %d tuples, want cap 1", rec.Len())
	}
}

// TestRecorderDisabledZeroAlloc is the benchmark guard for the recorder's
// core constraint: with a nil recorder the stream's chunk repair loop
// (raw coding + per-attr OOV accounting + coded chase + repair capture)
// allocates nothing.
func TestRecorderDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	r := NewRepairer(paperRuleset())
	in := "name,country,capital,city,conf\n" +
		"Ian,China,Shanghai,Hongkong,ICDE\n" +
		"Peter,China,Tokyo,Tokyo,ICDE\n" +
		"George,China,Beijing,Beijing,SIGMOD\n"
	cr, _, err := r.openChunkCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var chunk store.RawChunk
	if _, err := cr.ReadRawChunk(&chunk, 16); err != nil {
		t.Fatal(err)
	}
	sc := r.getScratch()
	defer r.putScratch(sc)
	acc := &r.newStreamAccs(1)[0].streamAccData
	for _, alg := range []Algorithm{Chase, Linear} {
		// Warm: grows the repair capture buffer outside the measured runs.
		r.repairRawChunk(&chunk, sc, alg, acc, nil, 0)
		allocs := testing.AllocsPerRun(100, func() {
			r.repairRawChunk(&chunk, sc, alg, acc, nil, 0)
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocs per repairRawChunk with recorder disabled, want 0", alg, allocs)
		}
		if len(sc.reps) != 3 {
			t.Errorf("%v: captured %d repairs, want 3", alg, len(sc.reps))
		}
	}
}

// TestRepairRelationParallelRecordedMatchesSequential: batch parallel
// recording agrees with sequential on a relation large enough to spread
// over many chunks.
func TestRepairRelationParallelRecordedMatchesSequential(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := schema.NewRelation(travel())
	for i := 0; i < 2000; i++ {
		switch {
		case i%5 == 3:
			rel.Append(schema.Tuple{fmt.Sprintf("p%d", i), "China", "Shanghai", "Hongkong", "ICDE"})
		case i%13 == 7:
			rel.Append(schema.Tuple{fmt.Sprintf("p%d", i), "Canada", "Toronto", "Toronto", "VLDB"})
		default:
			rel.Append(schema.Tuple{fmt.Sprintf("p%d", i), "China", "Beijing", "Beijing", "SIGMOD"})
		}
	}
	seqRec := NewChaseRecorder(-1, 1, 9)
	seqRes := r.RepairRelationRecorded(rel, Linear, seqRec)
	parRec := NewChaseRecorder(-1, 1, 9)
	parRes := r.RepairRelationParallelRecorded(rel, Linear, 4, parRec)
	if !reflect.DeepEqual(seqRec.Tuples(), parRec.Tuples()) {
		t.Fatal("parallel recorded traces differ from sequential")
	}
	if !reflect.DeepEqual(seqRes.OOVByAttr, parRes.OOVByAttr) {
		t.Fatalf("OOVByAttr: seq %v != par %v", seqRes.OOVByAttr, parRes.OOVByAttr)
	}
}

// TestOOVByAttrAccounting: the per-attribute OOV breakdown sums to OOV and
// names the right attributes on all three paths (batch, sequential
// stream, parallel stream).
func TestOOVByAttrAccounting(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := schema.NewRelation(travel())
	// "name" has no dictionary (never mentioned by Σ) so it never counts;
	// "Atlantis"/"Mars" are out of every vocabulary.
	rel.Append(schema.Tuple{"A", "Atlantis", "Beijing", "Beijing", "SIGMOD"})
	rel.Append(schema.Tuple{"B", "China", "Mars", "Beijing", "SIGMOD"})
	rel.Append(schema.Tuple{"C", "Atlantis", "Mars", "Beijing", "SIGMOD"})
	res := r.RepairRelation(rel, Linear)
	// city=Beijing and conf=SIGMOD are outside Σ's per-attribute
	// vocabularies too — OOV is about evidence capacity, not correctness.
	want := map[string]int{"country": 2, "capital": 2, "city": 3, "conf": 3}
	if !reflect.DeepEqual(res.OOVByAttr, want) {
		t.Fatalf("batch OOVByAttr = %v, want %v", res.OOVByAttr, want)
	}
	sum := 0
	for _, n := range res.OOVByAttr {
		sum += n
	}
	if sum != res.OOV {
		t.Fatalf("OOVByAttr sums to %d, OOV = %d", sum, res.OOV)
	}

	var b bytes.Buffer
	writeCSVRelation(t, &b, rel)
	input := b.String()
	for _, workers := range []int{1, 3} {
		var out bytes.Buffer
		stats, err := r.Stream(context.Background(), strings.NewReader(input), &out, Linear,
			StreamOptions{Workers: workers, ChunkRows: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stats.OOVByAttr, want) {
			t.Fatalf("workers=%d: stream OOVByAttr = %v, want %v", workers, stats.OOVByAttr, want)
		}
	}
}
