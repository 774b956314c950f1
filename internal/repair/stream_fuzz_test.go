package repair

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"testing"

	"fixrule/internal/core"
	"fixrule/internal/repairlog"
	"fixrule/internal/schema"
	"fixrule/internal/store"
)

// fuzzRuleset is a small consistent Σ over R(a, b, c, d) that exercises
// every shape the stream engines special-case: multi-attribute evidence
// (f2), a chain where one rule's fact enables the next (f4 → f1 → f2 →
// f3), values on both sides of the 8-byte boundary, and negative patterns
// and a fact that need CSV quoting.
func fuzzRuleset() *core.Ruleset {
	sch := schema.New("R", "a", "b", "c", "d")
	return core.MustRuleset(
		core.MustNew("f1", sch, map[string]string{"a": "x"}, "b", []string{"y", "eightchr"}, "w"),
		core.MustNew("f2", sch, map[string]string{"a": "x", "b": "w"}, "c", []string{"p", "ninechars"}, "q"),
		core.MustNew("f3", sch, map[string]string{"c": "q"}, "d", []string{" k", `k"k`}, "v,w"),
		core.MustNew("f4", sch, map[string]string{"d": "k"}, "a", []string{"z"}, "x"),
	)
}

var utf8BOM = []byte{0xEF, 0xBB, 0xBF}

// referenceStream is the oracle, which shares no code with the chunk
// pipeline: strip a BOM, schema.ReadCSV, chase every row with core.Fix
// (the string-level reference semantics), schema.WriteCSV. OOV comes from
// OOVCellsByAttr. rec, when non-nil, records core.Fix's steps. By Theorem
// 1 the bytes, Rows, Repaired, Steps and OOV are those of either
// algorithm. PerRule and the recorder log follow core.Fix's order, which
// restarts from the first live rule after each application. The compiled
// cRepair finishes its pass instead, which on fuzzRuleset gives the same
// order (a rule there only enables later rules, or is the last); lRepair's
// order may differ.
func referenceStream(rp *Repairer, in []byte, rec *ChaseRecorder) ([]byte, *StreamStats, error) {
	rel, err := schema.ReadCSV(bytes.NewReader(bytes.TrimPrefix(in, utf8BOM)), rp.Ruleset().Schema())
	if err != nil {
		return nil, nil, err
	}
	pos := make(map[*core.Rule]int32, len(rp.rules))
	for i, rule := range rp.rules {
		pos[rule] = int32(i)
	}
	stats := &StreamStats{Rows: rel.Len(), PerRule: make(map[string]int)}
	oovBy := make([]int64, rel.Schema().Arity())
	rows := make([]schema.Tuple, rel.Len())
	for i, t := range rel.Rows() {
		stats.OOV += rp.OOVCellsByAttr(t, oovBy)
		fixed, steps, _ := core.Fix(rp.rules, t)
		rows[i] = fixed
		if len(steps) > 0 {
			stats.Repaired++
		}
		for _, s := range steps {
			stats.Steps++
			stats.PerRule[s.Rule.Name()]++
			if rec != nil {
				rec.record(i, pos[s.Rule], s.Rule, s.From)
			}
		}
	}
	stats.OOVByAttr = rp.oovByAttr(oovBy)
	var out bytes.Buffer
	if err := schema.WriteCSV(&out, schema.FromRows(rel.Schema(), rows)); err != nil {
		return nil, nil, err
	}
	return out.Bytes(), stats, nil
}

// streamConfigs is the worker × chunk-size matrix every stream must agree
// across: the sequential loop, an even and an oversubscribed pool; CSV
// output at chunks of one row, an odd size and the default, and fcol
// output at one row and the default.
func streamConfigs() []StreamOptions {
	var opts []StreamOptions
	for _, workers := range []int{1, 2, 4} {
		for _, chunkRows := range []int{1, 3, 0} {
			opts = append(opts, StreamOptions{Workers: workers, ChunkRows: chunkRows})
		}
		for _, chunkRows := range []int{1, 0} {
			opts = append(opts, StreamOptions{Out: Fcol, Workers: workers, ChunkRows: chunkRows})
		}
	}
	return opts
}

// repairSubject is one engine configuration under test: it repairs in
// (recording into rec) and returns the repaired relation rendered as CSV,
// so every subject compares with the oracle's bytes.
type repairSubject struct {
	name string
	run  func(in []byte, rec *ChaseRecorder) ([]byte, *StreamStats, error)
}

// repairSubjects lists RepairRelation at workers {1, 2, 4}, then Stream in
// every configuration. An fcol output is decoded with the chunk scanner
// and rendered as CSV.
func repairSubjects(rp *Repairer, alg Algorithm, configs []StreamOptions) []repairSubject {
	var subjects []repairSubject
	for _, workers := range []int{1, 2, 4} {
		subjects = append(subjects, repairSubject{
			name: fmt.Sprintf("%v RepairRelation workers=%d", alg, workers),
			run: func(in []byte, rec *ChaseRecorder) ([]byte, *StreamStats, error) {
				rel, err := schema.ReadCSV(bytes.NewReader(bytes.TrimPrefix(in, utf8BOM)), rp.Ruleset().Schema())
				if err != nil {
					return nil, nil, err
				}
				res := rp.RepairRelation(rel, alg, RelationOptions{Workers: workers, Recorder: rec})
				var out bytes.Buffer
				err = schema.WriteCSV(&out, res.Relation)
				return out.Bytes(), &res.StreamStats, err
			},
		})
	}
	for _, opts := range configs {
		subjects = append(subjects, repairSubject{
			name: fmt.Sprintf("%v Stream out=%v workers=%d chunk=%d", alg, opts.Out, opts.Workers, opts.ChunkRows),
			run: func(in []byte, rec *ChaseRecorder) ([]byte, *StreamStats, error) {
				opts.Recorder = rec
				var out bytes.Buffer
				stats, err := rp.Stream(context.Background(), bytes.NewReader(in), &out, alg, opts)
				if err != nil || opts.Out == CSV {
					return out.Bytes(), stats, err
				}
				rel, err := decodeFcol(out.Bytes())
				if err != nil {
					return nil, nil, fmt.Errorf("decoding the fcol output: %w", err)
				}
				var csvOut bytes.Buffer
				err = schema.WriteCSV(&csvOut, rel)
				return csvOut.Bytes(), stats, err
			},
		})
	}
	return subjects
}

// decodeFcol reads an fcol stream back into a relation, frame by frame.
func decodeFcol(b []byte) (*schema.Relation, error) {
	sc, err := store.NewChunkScanner(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	rel := schema.NewRelation(sc.Schema())
	var c store.ColChunk
	for {
		n, err := sc.ReadChunk(&c)
		if err == io.EOF {
			return rel, nil
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			t := make(schema.Tuple, sc.Schema().Arity())
			for a := range t {
				t[a] = c.Value(i, a)
			}
			rel.Append(t)
		}
	}
}

// checkStreamMatchesReference requires every subject to agree with the
// oracle on in: identical bytes, Rows, Repaired, Steps and OOV, and an
// error exactly when the oracle errors. cRepair must also reproduce the
// oracle's PerRule and recorder log (see referenceStream); lRepair's must
// agree across all subjects.
func checkStreamMatchesReference(t *testing.T, rp *Repairer, in []byte, configs []StreamOptions) {
	t.Helper()
	for _, alg := range []Algorithm{Linear, Chase} {
		wantRec := NewChaseRecorder(-1, 1, 0)
		want, wantStats, wantErr := referenceStream(rp, in, wantRec)
		var wantPerRule map[string]int
		var wantLog []repairlog.Entry
		if wantErr == nil && alg == Chase {
			wantPerRule, wantLog = wantStats.PerRule, wantRec.Log()
		}
		for _, sub := range repairSubjects(rp, alg, configs) {
			rec := NewChaseRecorder(-1, 1, 0)
			got, stats, err := sub.run(in, rec)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: err = %v, reference err = %v\ninput %q", sub.name, err, wantErr, in)
			}
			if err != nil {
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: output differs from reference\ninput %q\n got %q\nwant %q", sub.name, in, got, want)
			}
			if stats.Rows != wantStats.Rows || stats.Repaired != wantStats.Repaired || stats.Steps != wantStats.Steps ||
				stats.OOV != wantStats.OOV || !reflect.DeepEqual(stats.OOVByAttr, wantStats.OOVByAttr) {
				t.Fatalf("%s: stats = %+v, reference %+v\ninput %q", sub.name, stats, wantStats, in)
			}
			if wantPerRule == nil {
				wantPerRule, wantLog = stats.PerRule, rec.Log()
			}
			if !reflect.DeepEqual(stats.PerRule, wantPerRule) {
				t.Fatalf("%s: PerRule = %v, reference %v\ninput %q", sub.name, stats.PerRule, wantPerRule, in)
			}
			if !reflect.DeepEqual(rec.Log(), wantLog) {
				t.Fatalf("%s: recorder log = %v, reference %v\ninput %q", sub.name, rec.Log(), wantLog, in)
			}
		}
	}
}

// FuzzStreamMatchesReference is the repair engines' differential target:
// on arbitrary CSV bytes, RepairRelation at every worker count and Stream
// at every output format, worker count and chunk size must reproduce the
// core.Fix oracle exactly.
func FuzzStreamMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"\xEF\xBB\xBFa,b,c,d\nx,y,p,k\n",                          // BOM
		"a,b,c,d\r\nx,y,p,q\r\nz,eightchr,ninechars,k\r\n",        // CRLF
		"a,b,c,d\nx,\"y\r\nz\",p,\"a\rb\"\nx,y,\"p\",\"k\r\n\"\n", // CR and CRLF inside quotes
		"a,b,c,d\n\nx,y,p,k\n\n\nz,y,p,k\n\n",                     // blank lines
		"a,b,c,d\nx,y\"z,p,k\n",                                   // bare quote
		"a,b,c,d\nx,y,p\n",                                        // wrong arity
		"a,b,c,d\nx,y,p,k,extra\n",                                // wrong arity, long
		"\"a\",b,\"c\",d\nx,y,ninechars,\" k\"\n",                 // quoted header
		"",                                   // empty input
		"a,b,c,d",                            // header with no newline
		"a,b,c,d\nx,y,p,k\nz,w,q,\"k\"\"k\"", // last row with no newline
		"a,b,c,d\n\"x\",\"y\",\"p\",\"k\"\n\"\",\"\",,\n", // quoted values that need no quotes
		"a,b,c,d\nx,y,p,\\.\n\" x\",y,p,k\n",              // values the writer must quote
		"a,b,c,d\n000,0,-0",                               // "-" after "," within one SWAR word
		"a,b,c,d\nx,-y,-p,-k\n000000,-0,--,-\n",           // the same, with the right arity
	} {
		f.Add([]byte(seed))
	}
	rp, err := NewRepairerChecked(fuzzRuleset())
	if err != nil {
		f.Fatal(err)
	}
	configs := streamConfigs()
	f.Fuzz(func(t *testing.T, in []byte) {
		checkStreamMatchesReference(t, rp, in, configs)
	})
}
