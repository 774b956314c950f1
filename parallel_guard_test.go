package fixrule

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"

	"fixrule/internal/repair"
	"fixrule/internal/schema"
)

// TestParallelRepairNotSlower is the regression tripwire for the scaling
// bug this repo shipped once: RepairRelationParallel used to run 0.94× the
// sequential rate on the hosp bench because of stripe scheduling, false
// sharing, and per-row cloning. It measures both paths with
// testing.Benchmark on the real hosp workload and fails with an
// unmissable message if parallel ever drops below sequential again.
//
// On a single-core host (GOMAXPROCS=1) the parallel path intentionally
// degenerates to the sequential one, so there is nothing to compare;
// the test requires at least two schedulable CPUs. The race detector
// skews timing too much to compare speeds, and -short skips all
// testing.Benchmark-based tests.
func TestParallelRepairNotSlower(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts timing comparisons")
	}
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if p, c := runtime.GOMAXPROCS(0), runtime.NumCPU(); p < 2 || c < 2 {
		// GOMAXPROCS < 2 degenerates to the sequential path; NumCPU < 2
		// (e.g. a single-core container with GOMAXPROCS forced up) makes
		// "parallel" pure oversubscription overhead with nothing to win.
		t.Skipf("GOMAXPROCS=%d, NumCPU=%d: no real parallelism to measure", p, c)
	}
	w := loadHosp(t)
	rep := repair.NewRepairer(w.rules)

	seq := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep.RepairRelation(w.dirty, repair.Linear)
		}
	})
	par := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep.RepairRelationParallel(w.dirty, repair.Linear, 0)
		}
	})
	seqNs, parNs := seq.NsPerOp(), par.NsPerOp()
	speedup := float64(seqNs) / float64(parNs)
	t.Logf("sequential %d ns/op, parallel %d ns/op, speedup %.2fx at GOMAXPROCS=%d",
		seqNs, parNs, speedup, runtime.GOMAXPROCS(0))
	// 0.90 leaves headroom for scheduler noise on loaded CI machines; a
	// genuine regression of the kind this guards against lands far below.
	if speedup < 0.90 {
		t.Errorf("PARALLEL REPAIR REGRESSION: RepairRelationParallel is %.2fx the sequential rate "+
			"(sequential %d ns/op vs parallel %d ns/op at GOMAXPROCS=%d) — parallel must not be slower "+
			"than sequential; see docs/ALGORITHMS.md for the chunked-scheduler design",
			speedup, seqNs, parNs, runtime.GOMAXPROCS(0))
	}
}

// TestParallelStreamNotSlower applies the same tripwire to Repairer.Stream:
// the worker pool at GOMAXPROCS against the sequential loop (Workers: 1).
func TestParallelStreamNotSlower(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts timing comparisons")
	}
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if p, c := runtime.GOMAXPROCS(0), runtime.NumCPU(); p < 2 || c < 2 {
		t.Skipf("GOMAXPROCS=%d, NumCPU=%d: no real parallelism to measure", p, c)
	}
	w := loadHosp(t)
	rep := repair.NewRepairer(w.rules)
	var csvIn bytes.Buffer
	if err := schema.WriteCSV(&csvIn, w.dirty); err != nil {
		t.Fatal(err)
	}
	in := csvIn.Bytes()
	seq := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rep.Stream(context.Background(), bytes.NewReader(in), io.Discard, repair.Linear,
				repair.StreamOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	par := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rep.Stream(context.Background(), bytes.NewReader(in), io.Discard, repair.Linear,
				repair.StreamOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	seqNs, parNs := seq.NsPerOp(), par.NsPerOp()
	speedup := float64(seqNs) / float64(parNs)
	t.Logf("stream %d ns/op, stream-parallel %d ns/op, speedup %.2fx at GOMAXPROCS=%d",
		seqNs, parNs, speedup, runtime.GOMAXPROCS(0))
	// The stream pays CSV parse + write on top of repair, so parity is the
	// floor, not 2×; the same 0.90 noise margin applies.
	if speedup < 0.90 {
		t.Errorf("PARALLEL STREAM REGRESSION: the parallel stream is %.2fx the sequential stream rate "+
			"(sequential %d ns/op vs parallel %d ns/op at GOMAXPROCS=%d)",
			speedup, seqNs, parNs, runtime.GOMAXPROCS(0))
	}
}
