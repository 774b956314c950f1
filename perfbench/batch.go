package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up measurement; the
// reported setup_s is their median.
const setupReps = 7

// minJobs is the fewest fixrepair jobs a batch run times, however short
// its --seconds.
const minJobs = 3

// streamedRE parses fixrepair -stream's summary line.
var streamedRE = regexp.MustCompile(`streamed (\d+) rows .*: (\d+) tuples repaired with (\d+) rule applications`)

// runBatch measures batch-hosp: repeated `fixrepair -stream` jobs over the
// generated CSV, each checked byte for byte against the reference.
func runBatch(ctx context.Context, e *env, in *input) (*outcome, error) {
	o := newOutcome()
	ref, err := in.refFullCSV()
	if err != nil {
		return nil, err
	}
	wantRows, wantRepaired, wantSteps := in.dirty.Len(), in.repairedRows(), in.ref.Steps

	// Set-up: a run over a header-only input pays process start, parsing,
	// the consistency check and compilation of Σ, and nothing else.
	header := filepath.Join(e.dir, "header.csv")
	hdr := in.csv[:bytes.IndexByte(in.csv, '\n')+1]
	if err := os.WriteFile(header, hdr, 0o644); err != nil {
		return nil, err
	}
	hdrOut := filepath.Join(e.dir, "header.out.csv")
	var setup []float64
	for i := 0; i < setupReps; i++ {
		j, err := runJob(ctx, e.fixrepair(), []string{"-stream", "-rules", in.rulesPath, "-data", header, "-out", hdrOut})
		if err != nil {
			return nil, err
		}
		o.attempted++
		if got, err := os.ReadFile(hdrOut); err != nil || string(got) != string(hdr) {
			o.mismatch("header-only run: output %q, want the header line", got)
		}
		setup = append(setup, j.wall.Seconds())
	}
	o.set("setup_s", "s", setup)

	// Jobs write into a FIFO this process reads and checksums as it arrives,
	// so every job's bytes are checked without 65 MB of page-cache
	// writeback per job adding its own noise to the timings.
	out := filepath.Join(e.dir, "out.csv")
	if err := syscall.Mkfifo(out, 0o600); err != nil {
		return nil, fmt.Errorf("mkfifo: %w", err)
	}
	refSum := crc32.Checksum(ref, castagnoli)
	args := []string{"-stream", "-rules", in.rulesPath, "-data", in.dataPath, "-out", out}
	var tps, wallMS, cpuUS, rss []float64
	var spent time.Duration
	want := digest{sum: refSum, n: int64(len(ref))}
	for n := 0; n < minJobs || spent.Seconds() < e.seconds; n++ {
		var j jobResult
		err := o.unstalled(fmt.Sprintf("fixrepair job %d", n), func() error {
			var got digest
			var err error
			if j, got, err = runToFIFO(ctx, e.fixrepair(), args, out); err != nil {
				return err
			}
			o.attempted++
			if err := checkJob(j.stdout, got, want, wantRows, wantRepaired, wantSteps); err != nil {
				o.mismatch("fixrepair job %d: %v", n, err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		spent += j.wall
		tps = append(tps, float64(wantRows)/j.wall.Seconds())
		wallMS = append(wallMS, float64(j.wall)/float64(time.Millisecond))
		cpuUS = append(cpuUS, float64(j.cpu)/float64(time.Microsecond)/float64(wantRows))
		rss = append(rss, j.rssMB)
	}
	logf("batch: %d jobs in %v", len(tps), spent.Round(time.Millisecond))
	o.set("tps", "tuples/s", tps)
	o.set("p50_ms", "ms", wallMS)
	// A job is one whole-file run; the record keeps the jobs' nearest-rank
	// 90th percentile as their tail.
	p90 := nearestRank(wallMS, 0.9)
	o.samples["p90_ms"] = summary{N: len(wallMS), Median: p90, Q1: p90, Q3: p90}
	o.set("cpu_us_per_tuple", "us", cpuUS)
	o.set("rss_mb", "MB", rss)
	return o, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest is a stream's length and CRC-32C.
type digest struct {
	sum uint32
	n   int64
	err error
}

// readDigest opens the FIFO at path (blocking until a writer opens it)
// and checksums everything written until the writer closes it.
func readDigest(path string) digest {
	f, err := os.Open(path)
	if err != nil {
		return digest{err: err}
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	n, err := io.CopyBuffer(h, f, make([]byte, 1<<20))
	return digest{sum: h.Sum32(), n: n, err: err}
}

// runToFIFO runs one fixrepair job whose -out is the FIFO at fifo and
// returns it with the digest of everything it wrote there.
func runToFIFO(ctx context.Context, bin string, args []string, fifo string) (jobResult, digest, error) {
	sums := make(chan digest, 1)
	go func() { sums <- readDigest(fifo) }()
	j, err := runJob(ctx, bin, args)
	if err == nil {
		return j, <-sums, nil
	}
	// The job may have died before opening its output, leaving the reader
	// blocked in open: open the write end until the reader has let go.
	for {
		if f, oerr := os.OpenFile(fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0); oerr == nil {
			f.Close()
		}
		select {
		case <-sums:
			return j, digest{}, err
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// checkJob verifies one fixrepair job: its summary counts and the bytes it
// wrote must equal the reference.
func checkJob(stdout string, got, want digest, rows, repaired, steps int) error {
	m := streamedRE.FindStringSubmatch(stdout)
	if m == nil {
		return fmt.Errorf("no summary line in %q", stdout)
	}
	counts := [3]int{}
	for i := range counts {
		counts[i], _ = strconv.Atoi(m[i+1])
	}
	if counts != [3]int{rows, repaired, steps} {
		return fmt.Errorf("rows/repaired/steps %v, reference %v", counts, [3]int{rows, repaired, steps})
	}
	if got.err != nil {
		return fmt.Errorf("reading output: %w", got.err)
	}
	if got.sum != want.sum || got.n != want.n {
		return fmt.Errorf("output %d bytes, CRC-32C %08x; reference %d bytes, %08x", got.n, got.sum, want.n, want.sum)
	}
	return nil
}
