package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"fixrule/internal/consistency"
	"fixrule/internal/core"
	"fixrule/internal/loadgen"
	"fixrule/internal/repair"
	"fixrule/internal/ruleio"
	"fixrule/internal/schema"
	"fixrule/internal/server"
	"fixrule/internal/store"
	"fixrule/internal/trace"
)

// chunkRows is the input unit of the store and engine probes.
const chunkRows = 1024

// spanRec is one finished span as written to the trace file.
type spanRec struct {
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartNs is relative to the run's first span.
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
}

// tracer wraps internal/trace for the benchmark's own spans: every input
// unit is one trace whose root is the unit and whose children are the
// layer calls made on it. Traces stay in memory until the run ends.
type tracer struct {
	tr     *trace.Tracer
	traces []*trace.Trace
	// off skips span creation entirely, for the untraced side of the
	// overhead comparison.
	off bool
}

func newTracer() *tracer {
	return &tracer{tr: trace.New(trace.Options{SampleRate: 1, RingSize: 1, MaxSpans: 64})}
}

// unit starts an input unit's trace (nil when tracing is off).
func (t *tracer) unit(name string) *trace.Trace {
	if t.off {
		return nil
	}
	tr := t.tr.StartRequest(name, trace.SpanContext{})
	t.traces = append(t.traces, tr)
	return tr
}

// span times f as a child of the unit's root.
func (t *tracer) span(u *trace.Trace, name string, f func()) {
	if u == nil {
		f()
		return
	}
	sp := u.Root().StartChild(name)
	f()
	sp.End()
}

// selfTimes returns every span's self time grouped by span name, one
// entry per span.
func (t *tracer) selfTimes() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, tr := range t.traces {
		spans := tr.Spans()
		kids := map[trace.SpanID][]interval{}
		for _, s := range spans {
			kids[s.Parent] = append(kids[s.Parent], interval{time.Duration(s.Start.UnixNano()), time.Duration(s.Start.UnixNano()) + s.Duration})
		}
		for _, s := range spans {
			iv := interval{time.Duration(s.Start.UnixNano()), time.Duration(s.Start.UnixNano()) + s.Duration}
			out[s.Name] = append(out[s.Name], selfTime(iv, kids[s.ID]))
		}
	}
	return out
}

// write stores every span as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var t0 time.Time
	if len(t.traces) > 0 {
		t0 = t.traces[0].Start()
	}
	enc := json.NewEncoder(f)
	for _, tr := range t.traces {
		for _, s := range tr.Spans() {
			rec := spanRec{Trace: tr.ID().String(), ID: s.ID.String(), Name: s.Name,
				StartNs: s.Start.Sub(t0).Nanoseconds(), DurNs: s.Duration.Nanoseconds()}
			if !s.Parent.IsZero() {
				rec.Parent = s.Parent.String()
			}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// sum of ds.
func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func durMedian(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return medianOf(xs)
}

// runLayers is the traced run: it replays the workload's generated inputs
// through each layer's public functions, one span per call, and derives
// the per-layer metrics from the spans' self times.
func runLayers(ctx context.Context, e *env, wl *workload, ins []*input) (*outcome, error) {
	o := newOutcome()
	in := ins[0]
	tr := newTracer()
	budget := time.Duration(e.seconds * float64(time.Second))

	// Compile path: parse, check and compile Σ, as fixserve and fixrepair
	// do at start-up.
	for i := 0; i < setupReps; i++ {
		u := tr.unit("compile")
		var rs *core.Ruleset
		var err error
		tr.span(u, "ruleio.parse", func() { rs, err = ruleio.Parse(string(in.dsl)) })
		if err != nil {
			return nil, fmt.Errorf("ruleio.Parse: %w", err)
		}
		var c *consistency.Conflict
		tr.span(u, "consistency.check", func() { c = consistency.IsConsistent(rs, consistency.ByRule) })
		if c != nil {
			return nil, fmt.Errorf("re-parsed Σ is inconsistent: %v", c)
		}
		tr.span(u, "repair.compile", func() { repair.NewRepairer(rs) })
		u.Finish()
		o.attempted++
	}

	// Store and engine path over the workload's CSV, chunk by chunk. Passes
	// come in traced/untraced pairs, alternating which goes first, each
	// after a collection so neither inherits the other's garbage; the
	// difference is the spans' cost.
	var tracedPass, plainPass []float64
	var pass *pipeStats
	for start, k := time.Now(), 0; len(tracedPass) < 2 || time.Since(start) < budget/3; k++ {
		for _, off := range []bool{k%2 == 1, k%2 == 0} {
			tr.off = off
			runtime.GC()
			t0 := time.Now()
			ps, err := pipeline(tr, in)
			if err != nil {
				return nil, err
			}
			d := time.Since(t0).Seconds()
			if off {
				plainPass = append(plainPass, d)
			} else {
				tracedPass = append(tracedPass, d)
				pass = ps
			}
			o.attempted += int64(ps.rows)
			if ps.rendered != len(in.csv) {
				o.mismatch("rendered %d bytes from %d input bytes", ps.rendered, len(in.csv))
			}
		}
	}
	tr.off = false
	o.set("trace.overhead_frac", "ratio", []float64{medianOf(tracedPass)/medianOf(plainPass) - 1})

	// Tuple-at-a-time repair in 16-tuple units (the JSON batch shape) and
	// the in-memory whole-relation ceiling.
	n := in.dirty.Len()
	for b := 0; b+16 <= n && b < 16*1000; b += 16 {
		u := tr.unit("batch")
		tr.span(u, "repair.tuple", func() {
			for i := b; i < b+16; i++ {
				in.rep.RepairTuple(in.dirty.Row(i), repair.Linear)
			}
		})
		u.Finish()
	}
	for i := 0; i < 3; i++ {
		u := tr.unit("relation")
		var res *repair.Result
		tr.span(u, "repair.relation", func() { res = in.rep.RepairRelation(in.dirty, repair.Linear) })
		u.Finish()
		o.attempted++
		if res.Steps != in.ref.Steps || len(res.Changed) != len(in.ref.Changed) {
			o.mismatch("RepairRelation pass %d: %d steps, %d cells; reference %d, %d", i, res.Steps, len(res.Changed), in.ref.Steps, len(in.ref.Changed))
		}
	}

	self := tr.selfTimes()
	passes := float64(len(tracedPass))
	perRow := func(name string) float64 {
		return float64(sum(self[name])) / passes / float64(pass.rows)
	}
	o.set("ruleio.parse_ms", "ms", []float64{durMedian(self["ruleio.parse"], time.Millisecond)})
	o.set("consistency.check_ms", "ms", []float64{durMedian(self["consistency.check"], time.Millisecond)})
	o.set("repair.compile_ms", "ms", []float64{durMedian(self["repair.compile"], time.Millisecond)})
	o.set("store.scan_ns_per_row", "ns", []float64{perRow("store.scan")})
	scanSec := float64(sum(self["store.scan"])) / float64(time.Second) / passes
	o.set("store.scan_mb_s", "MB/s", []float64{float64(len(in.csv)) / 1e6 / scanSec})
	o.set("store.code_ns_per_row", "ns", []float64{perRow("store.code")})
	o.set("store.render_ns_per_row", "ns", []float64{perRow("store.render")})
	o.set("repair.encode_ns_per_tuple", "ns", []float64{perRow("repair.encode")})
	o.set("repair.chase_clean_ns", "ns", []float64{float64(sum(self["repair.chase_clean"])) / passes / float64(max(pass.clean, 1))})
	o.set("repair.chase_dirty_ns", "ns", []float64{float64(sum(self["repair.chase_dirty"])) / passes / float64(max(pass.dirty, 1))})
	tupleN := float64(16 * len(self["repair.tuple"]))
	o.set("repair.tuple_us", "us", []float64{float64(sum(self["repair.tuple"])) / float64(time.Microsecond) / tupleN})
	o.set("repair.relation_ns_per_tuple", "ns", []float64{durMedian(self["repair.relation"], time.Nanosecond) / float64(n)})

	// Fingerprint counts: exact for a given seed.
	o.set("repair.repaired_frac", "ratio", []float64{float64(in.repairedRows()) / float64(n)})
	o.set("repair.steps_per_row", "ratio", []float64{float64(in.ref.Steps) / float64(n)})
	o.set("repair.oov_frac", "ratio", []float64{float64(in.ref.OOV) / float64(n*in.dirty.Schema().Arity())})

	if err := scaling(ctx, e, in, o); err != nil {
		return nil, err
	}
	if err := servedLayers(ctx, e, wl, ins, tr, o); err != nil {
		return nil, err
	}
	path := filepath.Join(filepath.Dir(e.dir), "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	logf("spans of %d units written to %s", len(tr.traces), path)
	return o, nil
}

// pipeStats counts one pass of the store and engine probes.
type pipeStats struct {
	rows, clean, dirty int
	rendered           int
}

// pipeline makes one pass over the workload CSV in chunkRows units:
// raw scan (ReadRawChunk), scan plus vocabulary coding (ReadChunk), tuple
// encoding (EncodeTuple), the Linear chase on rows no rule changes and on
// rows a rule changes (RepairEncoded), and rendering (AppendChunkCSV) with
// the reference's repaired rows marked for re-rendering. The prefilter has
// no public entry point, so it shows only as a difference between the
// end-to-end numbers and these layers, never as its own probe.
func pipeline(tr *tracer, in *input) (*pipeStats, error) {
	arity := in.dirty.Schema().Arity()
	raw, _, err := store.NewCSVChunkReader(bytes.NewReader(in.csv), arity)
	if err != nil {
		return nil, err
	}
	col, header, err := store.NewCSVChunkReader(bytes.NewReader(in.csv), arity)
	if err != nil {
		return nil, err
	}
	var (
		rc       store.RawChunk
		cc       store.ColChunk
		rr       store.CSVChunkRenderer
		applied  []int32
		out      []byte
		enc      = make([][]uint32, chunkRows)
		work     []uint32
		ps       = &pipeStats{}
		firstRow = 0
	)
	var hb bytes.Buffer
	if err := schema.WriteCSV(&hb, schema.NewRelation(schema.New("h", header...))); err != nil {
		return nil, err
	}
	ps.rendered = hb.Len()
	for {
		u := tr.unit("chunk")
		var nRaw, nCol int
		var errRaw, errCol error
		tr.span(u, "store.scan", func() { nRaw, errRaw = raw.ReadRawChunk(&rc, chunkRows) })
		tr.span(u, "store.code", func() { nCol, errCol = col.ReadChunk(&cc, chunkRows) })
		if errors.Is(errRaw, io.EOF) && errors.Is(errCol, io.EOF) {
			if u != nil {
				u.Finish()
			}
			return ps, nil
		}
		if errRaw != nil || errCol != nil || nRaw != nCol {
			return nil, fmt.Errorf("chunk at row %d: raw %d rows (%v), coded %d rows (%v)", firstRow, nRaw, errRaw, nCol, errCol)
		}
		tr.span(u, "repair.encode", func() {
			for i := 0; i < nCol; i++ {
				enc[i] = in.rep.EncodeTuple(in.dirty.Row(firstRow+i), enc[i])
			}
		})
		chase := func(dirty bool) func() {
			return func() {
				for i := 0; i < nCol; i++ {
					if in.changedRows[firstRow+i] != dirty {
						continue
					}
					work = append(work[:0], enc[i]...)
					applied = in.rep.RepairEncoded(work, repair.Linear, applied)
				}
			}
		}
		tr.span(u, "repair.chase_clean", chase(false))
		tr.span(u, "repair.chase_dirty", chase(true))
		for i := 0; i < nCol; i++ {
			if in.changedRows[firstRow+i] {
				cc.MarkDirty(i)
				ps.dirty++
			} else {
				ps.clean++
			}
		}
		tr.span(u, "store.render", func() { out = rr.AppendChunkCSV(out[:0], &cc) })
		ps.rendered += len(out)
		if u != nil {
			u.Finish()
		}
		ps.rows += nCol
		firstRow += nCol
	}
}

// scaling times `fixrepair -stream` at -workers nproc against -workers 1
// on the workload's CSV, alternating, and reports the median speed-up.
func scaling(ctx context.Context, e *env, in *input, o *outcome) error {
	out := filepath.Join(e.dir, "scaling.csv")
	if err := syscall.Mkfifo(out, 0o600); err != nil {
		return fmt.Errorf("mkfifo: %w", err)
	}
	ref, err := in.refFullCSV()
	if err != nil {
		return err
	}
	want := digest{sum: crc32.Checksum(ref, castagnoli), n: int64(len(ref))}
	var ratios []float64
	for i := 0; i < 3; i++ {
		var walls [2]time.Duration
		for k, w := range []int{1, e.nproc} {
			j, got, err := runToFIFO(ctx, e.fixrepair(), []string{"-stream", "-workers", strconv.Itoa(w), "-rules", in.rulesPath, "-data", in.dataPath, "-out", out}, out)
			if err != nil {
				return err
			}
			o.attempted++
			if err := checkJob(j.stdout, got, want, in.dirty.Len(), in.repairedRows(), in.ref.Steps); err != nil {
				o.mismatch("fixrepair -workers %d: %v", w, err)
			}
			walls[k] = j.wall
		}
		ratios = append(ratios, walls[0].Seconds()/walls[1].Seconds())
	}
	o.set("repair.stream_scaling_x", "x", ratios)
	return nil
}

// sendTimes is an http.RoundTripper that records when each request left
// the load generator, to measure how late it ran against its schedule.
type sendTimes struct {
	next http.RoundTripper
	mu   sync.Mutex
	at   []time.Time
}

func (s *sendTimes) RoundTrip(r *http.Request) (*http.Response, error) {
	s.mu.Lock()
	s.at = append(s.at, time.Now())
	s.mu.Unlock()
	return s.next.RoundTrip(r)
}

// lateness returns how far each dispatch trailed its slot on an absolute
// schedule of the given rate. The schedule's origin is aligned to the
// earliest dispatch, so the best-aligned request reads zero.
func lateness(at []time.Time, rps float64) []time.Duration {
	if len(at) == 0 {
		return nil
	}
	sorted := append([]time.Time(nil), at...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Before(sorted[j]) })
	slot := func(k int) time.Duration { return time.Duration(float64(k) / rps * float64(time.Second)) }
	origin := sorted[0]
	for k, t := range sorted {
		if o := t.Add(-slot(k)); o.Before(origin) {
			origin = o
		}
	}
	out := make([]time.Duration, len(sorted))
	for k, t := range sorted {
		out[k] = t.Sub(origin) - slot(k)
	}
	return out
}

// servedLayers measures the HTTP, proxy, runtime and load-generator
// layers on a 1-proxy/1-worker tenant topology serving the workload's Σ:
// the in-process handler, the same request over loopback direct to the
// worker and through the proxy, the worker's own latency histogram and GC
// counters, and a short open-loop phase through the proxy.
func servedLayers(ctx context.Context, e *env, wl *workload, ins []*input, tr *tracer, o *outcome) error {
	in := ins[0]
	dir := filepath.Join(e.dir, "layer-tenants")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	const tenant = "bench"
	if err := os.WriteFile(filepath.Join(dir, tenant+".dsl"), in.dsl, 0o644); err != nil {
		return err
	}
	worker, err := startServer(e.fixserve(), []string{"-mode", "worker", "-tenant-rules", dir}, filepath.Join(e.dir, "layer-worker.log"))
	if err != nil {
		return err
	}
	px, err := startServer(e.fixserve(), []string{"-mode", "proxy", "-peers", worker.url()}, filepath.Join(e.dir, "layer-proxy.log"))
	if err != nil {
		worker.stop()
		return err
	}
	st := &sendTimes{next: &http.Transport{MaxIdleConns: e.nproc, MaxIdleConnsPerHost: e.nproc}}
	client := &http.Client{Transport: st, Timeout: time.Minute}
	defer func() {
		client.CloseIdleConnections()
		stopAll([]*sut{worker, px})
	}()

	// The in-process server resolves the tenant the way a worker does.
	inproc, err := server.NewTenantOnly(server.Config{
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		Tenants: &server.TenantOptions{Loader: func(string) (*core.Ruleset, error) { return ruleio.Parse(string(in.dsl)) }},
	})
	if err != nil {
		return err
	}
	csvP := serveCSV
	jsonP := proxyJSON
	csvReqs, err := sampleRequests(&csvP, in, 0)
	if err != nil {
		return err
	}
	jsonP.mix = []loadgen.MixEntry{{Op: loadgen.OpRepair, Weight: 1}}
	jsonReqs, err := sampleRequests(&jsonP, in, 0)
	if err != nil {
		return err
	}
	topo := &topology{front: worker.url(), tenants: []string{tenant}, client: client}

	handler := func(name string, reqs []request, reps int) []time.Duration {
		var ds []time.Duration
		for i := 0; i < reps; i++ {
			r := reqs[i%len(reqs)]
			u := tr.unit("request")
			var rec *httptest.ResponseRecorder
			tr.span(u, name, func() {
				hr := httptest.NewRequest(http.MethodPost, topo.path(r), bytes.NewReader(r.body))
				hr.Header.Set("Content-Type", r.ctype)
				rec = httptest.NewRecorder()
				inproc.ServeHTTP(rec, hr)
			})
			u.Finish()
			o.attempted++
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), r.want) {
				o.mismatch("in-process %s %s: status %d, %d bytes", name, topo.path(r), rec.Code, rec.Body.Len())
			}
			ds = append(ds, u.Duration())
		}
		return ds
	}
	csvIn := handler("server.csv_handler", csvReqs, 2*sampleVariants)
	jsonIn := handler("server.json_handler", jsonReqs, 8*sampleVariants)
	o.set("server.csv_handler_ms", "ms", []float64{durMedian(csvIn, time.Millisecond)})
	o.set("server.json_handler_us", "us", []float64{durMedian(jsonIn, time.Microsecond)})

	// Loopback: the workload's request shape, alternately direct to the
	// worker and through the proxy, one at a time.
	reqs, inprocDs := csvReqs, csvIn
	reps := 3 * sampleVariants
	if wl.served != nil && wl.served.proxy {
		reqs, inprocDs, reps = jsonReqs, jsonIn, 16*sampleVariants
	}
	if err := firstAnswer(ctx, topo, reqs[:1], 30*time.Second, o); err != nil {
		return err
	}
	before, err := loadgen.ScrapeMetrics(ctx, client, worker.url()+"/metrics")
	if err != nil {
		return err
	}
	var direct, proxied []time.Duration
	viaProxy := &topology{front: px.url(), tenants: topo.tenants, client: client}
	for i := 0; i < reps; i++ {
		r := reqs[i%len(reqs)]
		u := tr.unit("request")
		for _, side := range []struct {
			name string
			t    *topology
			ds   *[]time.Duration
		}{{"server.loopback", topo, &direct}, {"proxy.loopback", viaProxy, &proxied}} {
			t0 := time.Now()
			var rp reply
			tr.span(u, side.name, func() { rp, err = send(ctx, side.t, r) })
			if err != nil {
				return err
			}
			*side.ds = append(*side.ds, time.Since(t0))
			o.attempted++
			if rp.problem != "" {
				o.mismatch("%s %s: %s", side.name, side.t.path(r), rp.problem)
			}
		}
		u.Finish()
	}
	after, err := loadgen.ScrapeMetrics(ctx, client, worker.url()+"/metrics")
	if err != nil {
		return err
	}
	directP50 := durMedian(direct, time.Millisecond)
	o.set("server.http_overhead_ms", "ms", []float64{directP50 - durMedian(inprocDs, time.Millisecond)})
	o.set("proxy.hop_ms", "ms", []float64{durMedian(proxied, time.Millisecond) - directP50})
	served := float64(2 * reps)
	if q, ok := loadgen.HistQuantileDelta(before, after, "fixserve_request_duration_seconds", 0.5); ok {
		o.set("server.metrics_p50_ms", "ms", []float64{q * 1000})
	} else {
		return errors.New("worker /metrics: no fixserve_request_duration_seconds observations")
	}
	o.set("runtime.gc_cycles", "per_1k_req", []float64{loadgen.FamilyDelta(before, after, "fixserve_gc_cycles_total") * 1000 / served})
	o.set("runtime.gc_pause_ms", "ms/1k_req", []float64{loadgen.FamilyDelta(before, after, "fixserve_gc_pause_seconds_total") * 1000 * 1000 / served})

	// A short open-loop phase through the proxy at the workload's nominal
	// rate: how late the generator dispatched, and how long requests
	// queued in front of the servers.
	p := csvP
	if wl.served != nil && wl.served.proxy {
		p = jsonP
	}
	st.mu.Lock()
	st.at = st.at[:0]
	st.mu.Unlock()
	rep, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:    px.url(),
		Phases:     []loadgen.Phase{{RPS: p.nominalRPS, Duration: time.Duration(e.seconds / 4 * float64(time.Second))}},
		Mix:        p.mix,
		Header:     in.dirty.Schema().Attrs(),
		Rows:       rowsOf(in.dirty),
		Tenants:    []string{tenant},
		Batch:      p.batch,
		StreamRows: p.streamRows,
		Conns:      e.nproc,
		Seed:       e.seed,
		Client:     client,
	})
	if err != nil {
		return err
	}
	o.attempted += rep.Attempted
	if f := rep.Errors + rep.Shed + rep.Truncated + rep.Dropped; f > 0 {
		o.mismatch("open-loop layer phase: %d of %d requests failed", f, rep.Attempted)
	}
	st.mu.Lock()
	late := lateness(st.at, p.nominalRPS)
	st.mu.Unlock()
	var lateHist loadgen.Hist
	for _, d := range late {
		lateHist.Record(d)
	}
	o.set("loadgen.late_p99_ms", "ms", []float64{ms(lateHist.Quantile(0.99))})
	o.set("loadgen.queue_p50_ms", "ms", []float64{ms(rep.Latency.Quantile(0.5)) - ms(rep.Service.Quantile(0.5))})
	return nil
}
