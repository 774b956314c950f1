// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It generates its inputs from a seed, drives the real
// fixrepair and fixserve binaries from outside, checks every output
// against the in-memory reference repair, and prints its metrics as one
// JSON object on the last line of standard output. See README.md.
//
//	bash perfbench/run.sh --workload serve-csv-dirty --seed 3 --seconds 20 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one named input set and the path it drives. Why each one
// exists is in BENCHMARK.json and README.md.
type workload struct {
	name string
	rels []relSpec
	// served is nil for the batch workload.
	served *servedParams
}

// workloads are the benchmark's fixed workloads; later changes refer to
// them by name, so names and parameters only change in a benchmark change.
var workloads = []workload{
	{
		name: "batch-hosp",
		rels: []relSpec{{Dataset: "hosp", Rows: 300000, Noise: 0.10, MaxRules: 1000}},
	},
	{
		name:   "serve-csv-dirty",
		rels:   []relSpec{{Dataset: "hosp", Rows: 20000, Noise: 0.30, MaxRules: 5000}},
		served: &serveCSV,
	},
	{
		name: "proxy-json-tenants",
		rels: []relSpec{
			{Dataset: "hosp", Rows: 20000, Noise: 0.10, MaxRules: 1000},
			{Dataset: "uis", Rows: 15000, Noise: 0.10, MaxRules: 100},
		},
		served: &proxyJSON,
	},
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run measured and checked.
type outcome struct {
	metrics   map[string]metric
	samples   map[string]summary
	attempted int64
	failed    int64
	// mismatches describes every output that differed from the reference.
	mismatches []string
	// repeats counts phases repeated after a host stall; worstStall is the
	// longest heartbeat gap in the phases kept.
	repeats    int
	worstStall time.Duration
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, samples: map[string]summary{}}
}

// set records a metric from its in-run samples: the value is their median.
func (o *outcome) set(name, unit string, samples []float64) {
	s := summarize(samples)
	o.samples[name] = s
	o.metrics[name] = metric{Value: s.Median, Unit: unit}
}

// unstalled runs a measured phase, and runs it again while the heartbeat
// shows a host stall, until the run's repeat budget is spent. Outputs
// checked inside phase count on every attempt; the caller keeps the
// figures of the last one.
func (o *outcome) unstalled(name string, phase func() error) error {
	for {
		hb := startHeartbeat()
		err := phase()
		gap := hb.end()
		if err != nil {
			return err
		}
		if gap <= stallLimit || o.repeats >= maxRepeats {
			o.worstStall = max(o.worstStall, gap)
			return nil
		}
		o.repeats++
		logf("%s: host stall of %v (limit %v); repeating it", name, gap.Round(time.Millisecond), stallLimit)
	}
}

// mismatch records a failed correctness check.
func (o *outcome) mismatch(format string, args ...any) {
	o.failed++
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

// env is what every workload runner needs.
type env struct {
	root    string // source checkout
	bin     string // directory holding fixrepair and fixserve
	dir     string // this run's scratch directory
	seed    int64
	seconds float64
	nproc   int
}

func (e *env) fixrepair() string { return filepath.Join(e.bin, "fixrepair") }
func (e *env) fixserve() string  { return filepath.Join(e.bin, "fixserve") }

// logf reports progress on standard error; standard output is reserved
// for the record and the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced probes")
		root    = flag.String("root", ".", "repository checkout (holds cmd/ and internal/)")
		work    = flag.String("work", ".bench_build", "build directory holding bin/; scratch files go under it")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *root, *work); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, root, work string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown -workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	dir, err := os.MkdirTemp(work, fmt.Sprintf("run-%s-%d-", name, seed))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{root: root, bin: filepath.Join(work, "bin"), dir: dir, seed: seed, seconds: seconds, nproc: runtime.NumCPU()}

	start := time.Now()
	ins := make([]*input, len(wl.rels))
	for i, spec := range wl.rels {
		in, err := generate(spec, seed, dir, fmt.Sprintf("%s-%d", spec.Dataset, i))
		if err != nil {
			return fmt.Errorf("generate %s: %w", spec.Dataset, err)
		}
		ins[i] = in
		logf("%s: %d rows, |Σ|=%d, %d rows repaired by the reference", spec.Dataset, in.dirty.Len(), in.rs.Len(), in.repairedRows())
	}
	logf("inputs ready in %v", time.Since(start).Round(time.Millisecond))

	// An interrupted run still stops every process it started: the
	// context cancels running jobs and load, and the deferred stops run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var o *outcome
	switch {
	case traced:
		o, err = runLayers(ctx, e, wl, ins)
	case wl.served == nil:
		o, err = runBatch(ctx, e, ins[0])
	default:
		o, err = runServed(ctx, e, wl, ins)
	}
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("interrupted: %w", err)
	}
	for _, m := range o.mismatches {
		logf("MISMATCH: %s", m)
	}
	if err := printRecord(os.Stdout, e, wl, ins, o, traced); err != nil {
		return err
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && len(o.mismatches) == 0, o.attempted, o.failed, o.metrics}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed their check", o.failed, o.attempted)
	}
	return nil
}

// printRecord writes the run's provenance record as one JSON line: host
// and toolchain, the code measured, the seed and input hashes, and for
// every metric its in-run sample count, median and quartiles.
func printRecord(w io.Writer, e *env, wl *workload, ins []*input, o *outcome, traced bool) error {
	hashes := map[string]string{}
	rules := map[string]int{}
	for _, in := range ins {
		for k, v := range in.hashes {
			hashes[k] = v
		}
		rules[in.spec.Dataset] = in.rs.Len()
	}
	gomaxprocs := runtime.GOMAXPROCS(0)
	child := runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		child = v
	}
	rec := map[string]any{
		"workload":   wl.name,
		"trace":      traced,
		"seed":       e.seed,
		"seconds":    e.seconds,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": map[string]int{"perfbench": gomaxprocs, "fixrepair": child, "fixserve": child},
		"go_version": runtime.Version(),
		"goarch":     runtime.GOARCH,
		"commit":     commit(e.root),
		"source":     sourceDigest(e.root),
		"inputs":     hashes,
		"rules":      rules,
		"metrics":    o.samples,
		"attempted":  o.attempted,
		"failed":     o.failed,
		"fail_frac":  failFrac(o.attempted, o.failed),
		"stall": map[string]any{
			"repeats":       o.repeats,
			"worst_kept_ms": ms(o.worstStall),
			"limit_ms":      ms(stallLimit),
		},
		"mismatches": o.mismatches,
	}
	b, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// commit is the checkout's git HEAD, or "unknown" outside a git work tree
// (an exported source tree); sourceDigest identifies the code either way.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source file and go.mod of the program under
// test (the benchmark's own directory and build products excluded), in
// path order, so two records of the same code carry the same digest.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || rel == "go.mod" {
			paths = append(paths, rel)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(filepath.Join(root, p))
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
