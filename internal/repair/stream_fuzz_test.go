package repair

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"fixrule/internal/core"
	"fixrule/internal/schema"
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

// referenceStream is the stream oracle: the in-memory path over the same
// bytes — strip a BOM, schema.ReadCSV, RepairRelationRecorded,
// schema.WriteCSV — with its Result folded into StreamStats.
func referenceStream(rp *Repairer, in []byte, alg Algorithm, rec *ChaseRecorder) ([]byte, *StreamStats, error) {
	rel, err := schema.ReadCSV(bytes.NewReader(bytes.TrimPrefix(in, utf8BOM)), rp.Ruleset().Schema())
	if err != nil {
		return nil, nil, err
	}
	res := rp.RepairRelationRecorded(rel, alg, rec)
	var out bytes.Buffer
	if err := schema.WriteCSV(&out, res.Relation); err != nil {
		return nil, nil, err
	}
	stats := &StreamStats{Rows: rel.Len(), Steps: res.Steps, OOV: res.OOV, OOVByAttr: res.OOVByAttr, PerRule: res.PerRule}
	for i, c := range res.Changed {
		if i == 0 || res.Changed[i-1].Row != c.Row {
			stats.Repaired++
		}
	}
	return out.Bytes(), stats, nil
}

// streamConfigs is the worker × chunk-size matrix every stream must agree
// across: the sequential loop, an even and an oversubscribed pool, and
// chunks of one row, an odd size, and the default.
func streamConfigs() []StreamOptions {
	var opts []StreamOptions
	for _, workers := range []int{1, 2, 4} {
		for _, chunkRows := range []int{1, 3, 0} {
			opts = append(opts, StreamOptions{Workers: workers, ChunkRows: chunkRows})
		}
	}
	return opts
}

// checkStreamMatchesReference requires Stream, in every configuration, to
// agree with the oracle on in: identical bytes, statistics and recorder
// log, and an error exactly when the oracle errors.
func checkStreamMatchesReference(t *testing.T, rp *Repairer, in []byte, configs []StreamOptions) {
	t.Helper()
	for _, alg := range []Algorithm{Linear, Chase} {
		wantRec := NewChaseRecorder(-1, 1, 0)
		want, wantStats, wantErr := referenceStream(rp, in, alg, wantRec)
		for _, opts := range configs {
			name := fmt.Sprintf("%v workers=%d chunk=%d", alg, opts.Workers, opts.ChunkRows)
			rec := NewChaseRecorder(-1, 1, 0)
			opts.Recorder = rec
			var got bytes.Buffer
			stats, err := rp.Stream(context.Background(), bytes.NewReader(in), &got, alg, opts)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: stream err = %v, reference err = %v\ninput %q", name, err, wantErr, in)
			}
			if err != nil {
				continue
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s: output differs from reference\ninput %q\n got %q\nwant %q", name, in, got.Bytes(), want)
			}
			if !reflect.DeepEqual(stats, wantStats) {
				t.Fatalf("%s: stats = %+v, reference %+v\ninput %q", name, stats, wantStats, in)
			}
			if !reflect.DeepEqual(rec.Log(), wantRec.Log()) {
				t.Fatalf("%s: recorder log = %v, reference %v\ninput %q", name, rec.Log(), wantRec.Log(), in)
			}
		}
	}
}

// FuzzStreamMatchesReference is the stream engines' differential target:
// on arbitrary CSV bytes, Stream at every worker count and chunk size must
// reproduce the in-memory reference repair exactly.
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
