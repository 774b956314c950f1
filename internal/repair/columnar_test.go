package repair

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"fixrule/internal/schema"
	"fixrule/internal/store"
)

// relationFcol renders a relation in the fcol chunk format.
func relationFcol(tb testing.TB, rel *schema.Relation, chunkRows int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := store.WriteColumnar(&buf, rel, chunkRows); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamCSVColumnarByteIdentical: the CSV stream's golden property
// for both algorithms — for every worker count and chunk size, its output
// bytes and StreamStats equal the in-memory reference repair's exactly,
// including on CSV-hostile values and the chunk-skipping prefilter paths.
func TestStreamCSVColumnarByteIdentical(t *testing.T) {
	r := NewRepairer(paperRuleset())
	in := relationCSV(t, skewedRelation(4000))

	for _, alg := range []Algorithm{Linear, Chase} {
		want, wantStats, err := referenceStream(r, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantStats.Repaired == 0 || wantStats.OOV == 0 {
			t.Fatalf("workload not adversarial as intended: %+v", wantStats)
		}
		for _, workers := range workerCounts() {
			for _, chunkRows := range []int{0, 64, 1} {
				var out bytes.Buffer
				stats, err := r.Stream(context.Background(), bytes.NewReader(in), &out, alg,
					StreamOptions{Workers: workers, ChunkRows: chunkRows})
				if err != nil {
					t.Fatalf("%v workers=%d chunk=%d: %v", alg, workers, chunkRows, err)
				}
				if !bytes.Equal(want, out.Bytes()) {
					t.Errorf("%v workers=%d chunk=%d: output bytes differ from reference", alg, workers, chunkRows)
				}
				if !reflect.DeepEqual(wantStats, stats) {
					t.Errorf("%v workers=%d chunk=%d: stats = %+v, want %+v", alg, workers, chunkRows, stats, wantStats)
				}
			}
		}
	}
}

// TestStreamColumnarFcol: the fcol→fcol and CSV→fcol streams repair to
// the same rows and stats as the CSV stream, and their output decodes
// cleanly (checksummed).
func TestStreamColumnarFcol(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := skewedRelation(2000)
	want := r.RepairRelation(rel, Linear)
	csvIn := relationCSV(t, rel)
	seqStats, err := r.Stream(context.Background(), bytes.NewReader(csvIn), io.Discard, Linear, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, out []byte, stats *StreamStats) {
		t.Helper()
		got, err := store.ReadColumnar(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("%s: decoding repaired stream: %v", name, err)
		}
		if len(schema.Diff(want.Relation, got)) != 0 {
			t.Errorf("%s: repaired rows differ from RepairRelation", name)
		}
		if !reflect.DeepEqual(seqStats, stats) {
			t.Errorf("%s: stats = %+v, want %+v", name, stats, seqStats)
		}
	}
	for _, workers := range workerCounts() {
		for _, chunkRows := range []int{256, 3000} {
			in := relationFcol(t, rel, chunkRows)
			var out bytes.Buffer
			stats, err := r.Stream(context.Background(), bytes.NewReader(in), &out, Linear,
				StreamOptions{In: Fcol, Out: Fcol, Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunkRows, err)
			}
			check(fmt.Sprintf("fcol workers=%d chunk=%d", workers, chunkRows), out.Bytes(), stats)
		}
		var out bytes.Buffer
		stats, err := r.Stream(context.Background(), bytes.NewReader(csvIn), &out, Linear,
			StreamOptions{Out: Fcol, Workers: workers})
		if err != nil {
			t.Fatalf("csv to fcol workers=%d: %v", workers, err)
		}
		check(fmt.Sprintf("csv to fcol workers=%d", workers), out.Bytes(), stats)
	}
	// fcol in, CSV out is not a stream this package renders.
	if _, err := r.Stream(context.Background(), bytes.NewReader(relationFcol(t, rel, 0)), io.Discard, Linear,
		StreamOptions{In: Fcol}); err == nil || !strings.Contains(err.Error(), "only to fcol") {
		t.Errorf("fcol to csv: err = %v, want rejection", err)
	}
}

// TestStreamColumnarFcolSchemaMismatch: a stream whose schema differs from
// the ruleset's is rejected up front.
func TestStreamColumnarFcolSchemaMismatch(t *testing.T) {
	r := NewRepairer(paperRuleset())
	other := schema.NewRelation(schema.New("other", "x", "y"))
	other.Append(schema.Tuple{"1", "2"})
	in := relationFcol(t, other, 0)
	_, err := r.Stream(context.Background(), bytes.NewReader(in), io.Discard, Linear, StreamOptions{In: Fcol, Out: Fcol})
	if err == nil || !strings.Contains(err.Error(), "does not match rule schema") {
		t.Fatalf("err = %v, want schema mismatch", err)
	}
}

// TestStreamCSVColumnarErrors: the CSV stream rejects bad headers,
// malformed rows (with their row number) and dead contexts, and ignores a
// BOM — with or without fcol output.
func TestStreamCSVColumnarErrors(t *testing.T) {
	r := NewRepairer(paperRuleset())
	ctx := context.Background()

	t.Run("bad header", func(t *testing.T) {
		in := "wrong,country,capital,city,conf\n"
		for _, out := range []Format{CSV, Fcol} {
			_, err := r.Stream(ctx, strings.NewReader(in), io.Discard, Linear, StreamOptions{Out: out})
			if err == nil || !strings.Contains(err.Error(), `field 0 is "wrong"`) {
				t.Fatalf("%v out: err = %v, want header field error", out, err)
			}
		}
	})
	t.Run("bom", func(t *testing.T) {
		plain := "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n"
		for _, out := range []Format{CSV, Fcol} {
			var want bytes.Buffer
			if _, err := r.Stream(ctx, strings.NewReader(plain), &want, Linear, StreamOptions{Out: out}); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if _, err := r.Stream(ctx, strings.NewReader("\xEF\xBB\xBF"+plain), &got, Linear, StreamOptions{Out: out}); err != nil {
				t.Fatalf("%v out: BOM input rejected: %v", out, err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("%v out: BOM input repaired differently from plain input", out)
			}
		}
	})
	t.Run("row error", func(t *testing.T) {
		in := "name,country,capital,city,conf\n" +
			"Ian,China,Shanghai,Hongkong,ICDE\n" +
			"broken,row\n"
		for _, workers := range []int{1, 2} {
			for _, out := range []Format{CSV, Fcol} {
				_, err := r.Stream(ctx, strings.NewReader(in), io.Discard, Linear, StreamOptions{Out: out, Workers: workers})
				if err == nil || !strings.Contains(err.Error(), "stream row 2") {
					t.Fatalf("%v out workers=%d: err = %v, want row 2 stream error", out, workers, err)
				}
			}
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		in := relationCSV(t, skewedRelation(2000))
		dead, cancel := context.WithCancel(ctx)
		cancel()
		for _, workers := range []int{1, 4} {
			for _, out := range []Format{CSV, Fcol} {
				_, err := r.Stream(dead, bytes.NewReader(in), io.Discard, Linear, StreamOptions{Out: out, Workers: workers})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%v out workers=%d: err = %v, want context.Canceled", out, workers, err)
				}
			}
		}
	})
}

// TestStreamCSVColumnarRecorder: chase traces recorded through either
// engine equal the in-memory reference's at any worker count — global row
// numbers, rule order, and pre-repair values.
func TestStreamCSVColumnarRecorder(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := skewedRelation(1000)
	in := relationCSV(t, rel)

	want := NewChaseRecorder(-1, 1, 0)
	r.RepairRelation(rel, Linear, RelationOptions{Recorder: want})
	if want.Len() == 0 {
		t.Fatal("no traces recorded")
	}
	for _, out := range []Format{CSV, Fcol} {
		for _, workers := range []int{1, 3} {
			rec := NewChaseRecorder(-1, 1, 0)
			_, err := r.Stream(context.Background(), bytes.NewReader(in), io.Discard, Linear,
				StreamOptions{Out: out, Workers: workers, ChunkRows: 128, Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Tuples(), rec.Tuples()) {
				t.Errorf("%v out workers=%d: stream traces differ from the reference", out, workers)
			}
		}
	}
}

// lowCardRelation exercises the steady-state batch loops: a handful of
// distinct values per column, a stable mix of repaired and clean rows.
func lowCardRelation(n int) *schema.Relation {
	rel := schema.NewRelation(travel())
	for i := 0; i < n; i++ {
		switch i % 7 {
		case 0:
			rel.Append(schema.Tuple{"pat", "China", "Shanghai", "Hongkong", "ICDE"})
		case 1:
			rel.Append(schema.Tuple{"lee", "Canada", "Toronto", "Toronto", "VLDB"})
		default:
			rel.Append(schema.Tuple{"kim", "China", "Beijing", "Beijing", "SIGMOD"})
		}
	}
	return rel
}

// TestStreamCSVColumnarAllocsPerRow pins the stream's allocation
// budget: once every distinct value is interned, parsing, translation,
// repair, and rendering run out of reused buffers, so the whole stream
// costs a fixed setup plus (almost) nothing per row.
func TestStreamCSVColumnarAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds allocations")
	}
	r := NewRepairer(paperRuleset())
	const rows = 20000
	in := relationCSV(t, lowCardRelation(rows))
	avg := testing.AllocsPerRun(5, func() {
		if _, err := r.Stream(context.Background(), bytes.NewReader(in), io.Discard, Linear,
			StreamOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > rows*0.05 {
		t.Errorf("Stream allocations = %.0f for %d rows (%.3f/row), want ≤ 0.05/row", avg, rows, avg/rows)
	}
}

// TestStreamCSVColumnarPrefilterSkip proves the chunk prefilter actually
// skips: a stream entirely outside Σ's vocabulary repairs nothing, counts
// its OOV cells, and echoes the input bytes (minus CR/LF normalisation)
// untouched.
func TestStreamCSVColumnarPrefilterSkip(t *testing.T) {
	r := NewRepairer(paperRuleset())
	var in bytes.Buffer
	in.WriteString("name,country,capital,city,conf\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&in, "p%d,Nowhere,None,None,NONE\n", i)
	}
	var out bytes.Buffer
	stats, err := r.Stream(context.Background(), bytes.NewReader(in.Bytes()), &out, Linear,
		StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Repaired != 0 || stats.Steps != 0 {
		t.Fatalf("clean stream repaired: %+v", stats)
	}
	if stats.OOV == 0 {
		t.Fatal("expected OOV cells on out-of-vocabulary stream")
	}
	if !bytes.Equal(in.Bytes(), out.Bytes()) {
		t.Error("clean stream not echoed byte-identically")
	}
}
