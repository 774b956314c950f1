package repair

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fixrule/internal/schema"
)

// skewedRelation builds a relation whose repairs are pathologically
// unbalanced: the first 5% of rows carry ~90% of the rule applications
// (each needs the two-step φ1→φ4 cascade), the rest are mostly clean with
// a sprinkle of one-step repairs. The old one-stripe-per-worker scheduler
// serialised the hot prefix onto a single worker; the chunked scheduler
// must spread it.
func skewedRelation(n int) *schema.Relation {
	rel := schema.NewRelation(travel())
	rng := rand.New(rand.NewSource(42))
	hot := n / 20
	for i := 0; i < n; i++ {
		switch {
		case i < hot:
			// Two repairs per row: capital Shanghai→Beijing, then city
			// Hongkong→Shanghai via the completed φ4 evidence.
			rel.Append(schema.Tuple{fmt.Sprintf("p%d", i), "China", "Shanghai", "Hongkong", "ICDE"})
		case rng.Intn(50) == 0:
			// Occasional single repair outside the hot prefix.
			rel.Append(schema.Tuple{fmt.Sprintf("p%d", i), "Canada", "Toronto", "Toronto", "VLDB"})
		case rng.Intn(7) == 0:
			// Values with CSV-hostile bytes, all outside Σ's vocabulary:
			// they must round-trip byte-identically through quoting.
			rel.Append(schema.Tuple{`q,"uoted`, "Mars", "a,b", "line\nbreak", "SIGMOD"})
		default:
			rel.Append(schema.Tuple{fmt.Sprintf("p%d", i), "China", "Beijing", "Beijing", "SIGMOD"})
		}
	}
	return rel
}

func relationCSV(tb testing.TB, rel *schema.Relation) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := schema.WriteCSV(&buf, rel); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// workerCounts is the satellite matrix: the degenerate single worker, odd
// counts that leave remainder chunks, and oversubscription.
func workerCounts() []int {
	p := runtime.GOMAXPROCS(0)
	return []int{1, 2, 3, p, 2 * p}
}

// TestStreamCSVParallelByteIdentical: the golden property — for every
// worker count and chunk size, the stream's stats equal the in-memory
// reference repair's, and its bytes equal the reference's rendering (CSV
// out) or the sequential loop's at the same chunk size (fcol out, whose
// frames follow the chunks).
func TestStreamCSVParallelByteIdentical(t *testing.T) {
	r := NewRepairer(paperRuleset())
	in := relationCSV(t, skewedRelation(4000))

	want, wantStats, err := referenceStream(r, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.Repaired == 0 || wantStats.Steps <= wantStats.Repaired {
		t.Fatalf("workload not skewed as intended: %+v", wantStats)
	}
	for _, chunkRows := range []int{0, 64, 1} {
		var seqFcol []byte
		for _, workers := range workerCounts() {
			for _, format := range []Format{CSV, Fcol} {
				var out bytes.Buffer
				stats, err := r.Stream(context.Background(), bytes.NewReader(in), &out, Linear,
					StreamOptions{Out: format, Workers: workers, ChunkRows: chunkRows})
				if err != nil {
					t.Fatalf("%v out workers=%d chunk=%d: %v", format, workers, chunkRows, err)
				}
				if !reflect.DeepEqual(wantStats, stats) {
					t.Errorf("%v out workers=%d chunk=%d: stats = %+v, want %+v", format, workers, chunkRows, stats, wantStats)
				}
				switch {
				case format == CSV && !bytes.Equal(want, out.Bytes()):
					t.Errorf("workers=%d chunk=%d: CSV bytes differ from reference", workers, chunkRows)
				case format == Fcol && workers == 1:
					seqFcol = out.Bytes()
				case format == Fcol && !bytes.Equal(seqFcol, out.Bytes()):
					t.Errorf("workers=%d chunk=%d: fcol bytes differ from the sequential loop's", workers, chunkRows)
				}
			}
		}
	}
}

// TestRepairRelationWorkersSkewed: the chunk pipeline reproduces the
// sequential Result exactly on the skewed relation for every worker count,
// including Changed order and PerRule counts.
func TestRepairRelationWorkersSkewed(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := skewedRelation(4000)
	seq := r.RepairRelation(rel, Linear)
	for _, workers := range workerCounts() {
		par := r.RepairRelation(rel, Linear, RelationOptions{Workers: workers})
		if len(schema.Diff(seq.Relation, par.Relation)) != 0 {
			t.Fatalf("workers=%d: repaired relation differs", workers)
		}
		if par.Steps != seq.Steps || par.OOV != seq.OOV {
			t.Errorf("workers=%d: steps/oov = %d/%d, want %d/%d", workers, par.Steps, par.OOV, seq.Steps, seq.OOV)
		}
		if !reflect.DeepEqual(par.Changed, seq.Changed) {
			t.Errorf("workers=%d: Changed order differs from sequential", workers)
		}
		if !reflect.DeepEqual(par.PerRule, seq.PerRule) {
			t.Errorf("workers=%d: PerRule = %v, want %v", workers, par.PerRule, seq.PerRule)
		}
	}
}

// TestRepairRelationChangedMatchesTupleRepairs: Result.Changed lists, in
// row then application order, exactly the cells RepairTuple changes row by
// row, on a relation of many pipeline units and at any worker count.
func TestRepairRelationChangedMatchesTupleRepairs(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := skewedRelation(4000)
	for _, alg := range []Algorithm{Linear, Chase} {
		var want []schema.Cell
		for i, tup := range rel.Rows() {
			_, steps := r.RepairTuple(tup, alg)
			for _, s := range steps {
				want = append(want, schema.Cell{Row: i, Attr: s.Attr})
			}
		}
		for _, workers := range []int{1, 3} {
			res := r.RepairRelation(rel, alg, RelationOptions{Workers: workers})
			if !reflect.DeepEqual(res.Changed, want) {
				t.Errorf("%v workers=%d: Changed differs from the per-tuple repairs", alg, workers)
			}
		}
	}
}

// TestParallelSharedRepairerRace drives Stream and a parallel
// RepairRelation concurrently against one shared Repairer — the
// scratch pool, dictionaries and inverted lists are shared state — and
// checks every interleaving still produces the sequential answer. Run
// under -race in CI.
func TestParallelSharedRepairerRace(t *testing.T) {
	r := NewRepairer(paperRuleset())
	rel := skewedRelation(2000)
	in := relationCSV(t, rel)

	seqOut, seqStats, err := referenceStream(r, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	seqRes := r.RepairRelation(rel, Linear)

	var wg sync.WaitGroup
	errc := make(chan error, 2*len(workerCounts()))
	for _, workers := range workerCounts() {
		workers := workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			stats, err := r.Stream(context.Background(), bytes.NewReader(in), &out, Linear, StreamOptions{Workers: workers})
			switch {
			case err != nil:
				errc <- fmt.Errorf("stream workers=%d: %w", workers, err)
			case !bytes.Equal(seqOut, out.Bytes()):
				errc <- fmt.Errorf("stream workers=%d: bytes differ", workers)
			case !reflect.DeepEqual(seqStats, stats):
				errc <- fmt.Errorf("stream workers=%d: stats %+v != %+v", workers, stats, seqStats)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := r.RepairRelation(rel, Linear, RelationOptions{Workers: workers})
			switch {
			case len(schema.Diff(seqRes.Relation, res.Relation)) != 0:
				errc <- fmt.Errorf("relation workers=%d: rows differ", workers)
			case !reflect.DeepEqual(seqRes.PerRule, res.PerRule):
				errc <- fmt.Errorf("relation workers=%d: PerRule %v != %v", workers, res.PerRule, seqRes.PerRule)
			case res.Steps != seqRes.Steps:
				errc <- fmt.Errorf("relation workers=%d: steps %d != %d", workers, res.Steps, seqRes.Steps)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestStreamCSVParallelCancelled: a dead context stops the pipeline
// between chunks with an errors.Is-compatible cause, on the sequential
// loop and the worker pool alike.
func TestStreamCSVParallelCancelled(t *testing.T) {
	r := NewRepairer(paperRuleset())
	in := relationCSV(t, skewedRelation(2000))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 0} {
		var out bytes.Buffer
		_, err := r.Stream(ctx, bytes.NewReader(in), &out, Linear, StreamOptions{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestStreamCSVParallelRowError: a malformed row surfaces as a
// row-numbered stream error at any worker count.
func TestStreamCSVParallelRowError(t *testing.T) {
	r := NewRepairer(paperRuleset())
	in := "name,country,capital,city,conf\n" +
		"Ian,China,Shanghai,Hongkong,ICDE\n" +
		"broken,row\n"
	for _, workers := range []int{1, 2} {
		var out bytes.Buffer
		_, err := r.Stream(context.Background(), strings.NewReader(in), &out, Linear,
			StreamOptions{Workers: workers, ChunkRows: 1})
		if err == nil || !strings.Contains(err.Error(), "stream row 2") {
			t.Fatalf("workers=%d: err = %v, want row 2 stream error", workers, err)
		}
	}
}

// TestStreamCSVStripsBOM: a UTF-8 BOM must not glue onto the first header
// field (regression: the header check used to fail with a confusing
// `field 0 is "name"`). Output carries no BOM, so BOM and BOM-less inputs
// repair to identical bytes — on the sequential loop and the worker pool.
func TestStreamCSVStripsBOM(t *testing.T) {
	r := NewRepairer(paperRuleset())
	plain := "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n"
	bom := "\xEF\xBB\xBF" + plain

	var wantOut bytes.Buffer
	wantStats, err := r.Stream(context.Background(), strings.NewReader(plain), &wantOut, Linear, StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		var out bytes.Buffer
		stats, err := r.Stream(context.Background(), strings.NewReader(bom), &out, Linear, StreamOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: BOM input rejected: %v", workers, err)
		}
		if !bytes.Equal(wantOut.Bytes(), out.Bytes()) || !reflect.DeepEqual(wantStats, stats) {
			t.Errorf("workers=%d: BOM input repaired differently from plain input", workers)
		}
	}
	// A BOM alone must not mask a genuinely wrong header.
	bad := "\xEF\xBB\xBFwrong,country,capital,city,conf\n"
	if _, err := r.Stream(context.Background(), strings.NewReader(bad), io.Discard, Linear, StreamOptions{}); err == nil ||
		!strings.Contains(err.Error(), `field 0 is "wrong"`) {
		t.Errorf("bad header after BOM: err = %v", err)
	}
}

// TestStreamCSVAllocsPerRow pins the stream's allocation budget on
// high-cardinality input (every row carries a distinct name): the raw
// engine codes cell bytes straight into Σ's vocabulary and re-emits clean
// rows as spans of the chunk buffer, so once the chunk units have grown,
// more rows cost no more allocations. The budget is on the marginal cost
// of a row — doubling the input — so the fixed setup (the worker pool's
// units included) does not count.
func TestStreamCSVAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds allocations")
	}
	r := NewRepairer(paperRuleset())
	const rows = 4000
	small := relationCSV(t, skewedRelation(rows))
	large := relationCSV(t, skewedRelation(2*rows))
	for _, workers := range []int{1, 2} {
		allocs := func(in []byte) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := r.Stream(context.Background(), bytes.NewReader(in), io.Discard, Linear, StreamOptions{Workers: workers}); err != nil {
					t.Fatal(err)
				}
			})
		}
		a1, a2 := allocs(small), allocs(large)
		if perRow := (a2 - a1) / rows; perRow > 0.01 {
			t.Errorf("workers=%d: Stream allocations = %.0f for %d rows, %.0f for %d (%.3f per extra row), want ≤ 0.01",
				workers, a1, rows, a2, 2*rows, perRow)
		}
	}
}
