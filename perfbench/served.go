package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fixrule/internal/loadgen"
	"fixrule/internal/repair"
	"fixrule/internal/schema"
)

// servedParams fixes a served workload's traffic: request shape, the
// nominal open-loop rate latency is measured at, and the offered rate
// that saturates the system for the throughput measurement.
type servedParams struct {
	// proxy selects the 1-proxy/2-worker tenant topology; otherwise one
	// standalone fixserve serves the single-tenant routes.
	proxy bool
	mix   []loadgen.MixEntry
	// batch is tuples per JSON /repair request, streamRows rows per CSV
	// /repair/csv request.
	batch, streamRows int
	// hotFrac is the share of the offered rate sent to the first tenant
	// (hot-tenant skew); the rest goes to the second.
	hotFrac float64
	// nominalRPS is about a third of the knee measured on a 2-vCPU host:
	// low enough that a host running slow does not yet queue requests
	// behind one another, so p50_ms describes an unsaturated server.
	nominalRPS float64
	// saturateRPS is over twice that knee: offered open-loop with a
	// queue no deeper than the connection count, it keeps every connection
	// busy, and the tuples completed per second are the system's capacity.
	saturateRPS float64
	// saturateConns is the in-flight request count of the saturation
	// phase. It stays below nproc for a server that handles a request on
	// one core, so the phase measures the server, not how a shared host
	// schedules every core of the VM at once.
	saturateConns int
}

var (
	serveCSV = servedParams{
		mix:         []loadgen.MixEntry{{Op: loadgen.OpCSV, Weight: 1}},
		streamRows:  2048,
		nominalRPS:  35,
		saturateRPS: 250,
		// fixserve's default -stream-workers 1 repairs a body on one
		// core; one connection keeps that core busy and leaves the other
		// to the generator.
		saturateConns: 1,
	}
	proxyJSON = servedParams{
		proxy:       true,
		mix:         []loadgen.MixEntry{{Op: loadgen.OpRepair, Weight: 4}, {Op: loadgen.OpExplain, Weight: 1}},
		batch:       16,
		hotFrac:     0.8,
		nominalRPS:  300,
		saturateRPS: 2500,
		// One connection per tenant generator.
		saturateConns: 2,
	}
)

// sampleVariants is how many distinct request bodies each checked sample
// covers; it matches the body rotation of internal/loadgen, so the sample
// holds the rows the load phases send.
const sampleVariants = 32

// request is one HTTP request with the bytes a correct server returns.
type request struct {
	// in indexes the workload input the request draws on; on the tenant
	// topology it selects the tenant, whose name prefixes route.
	in     int
	route  string
	ctype  string
	body   []byte
	want   []byte
	tuples int
}

// topology is a running system under test.
type topology struct {
	servers []*sut
	front   string   // base URL the load is sent to
	tenants []string // tenant per input; empty for standalone
	client  *http.Client
}

// path is the request path of r on this topology.
func (t *topology) path(r request) string {
	if len(t.tenants) == 0 {
		return r.route
	}
	return "/t/" + t.tenants[r.in] + r.route
}

func (t *topology) stop() {
	t.client.CloseIdleConnections()
	stopAll(t.servers)
}

// newClient returns an HTTP client keeping at most conns idle connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
		Timeout:   60 * time.Second,
	}
}

// startTopology spawns the workload's processes and returns once their
// listeners are up. For the proxy topology it also picks tenant names so
// that tenant i is owned by worker i, and writes their rule files.
func startTopology(ctx context.Context, e *env, p *servedParams, ins []*input, tag string) (*topology, error) {
	t := &topology{client: newClient(e.nproc)}
	log := func(name string) string { return filepath.Join(e.dir, tag+"-"+name+".log") }
	if !p.proxy {
		s, err := startServer(e.fixserve(), []string{"-rules", ins[0].rulesPath}, log("standalone"))
		if err != nil {
			return nil, err
		}
		t.servers = []*sut{s}
		t.front = s.url()
		return t, nil
	}
	dir := filepath.Join(e.dir, tag+"-tenants")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var peers []string
	for i := 0; i < 2; i++ {
		w, err := startServer(e.fixserve(), []string{"-mode", "worker", "-tenant-rules", dir}, log(fmt.Sprintf("worker%d", i)))
		if err != nil {
			stopAll(t.servers)
			return nil, err
		}
		t.servers = append(t.servers, w)
		peers = append(peers, w.url())
	}
	px, err := startServer(e.fixserve(), []string{"-mode", "proxy", "-peers", peers[0] + "," + peers[1]}, log("proxy"))
	if err != nil {
		stopAll(t.servers)
		return nil, err
	}
	t.servers = append(t.servers, px)
	t.front = px.url()
	for i, in := range ins {
		name, err := pickTenant(ctx, t, in.spec.Dataset, peers[i%len(peers)])
		if err != nil {
			t.stop()
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, name+".dsl"), in.dsl, 0o644); err != nil {
			t.stop()
			return nil, err
		}
		t.tenants = append(t.tenants, name)
	}
	return t, nil
}

// pickTenant returns the first of prefix, prefix-1, prefix-2, ... that the
// proxy's ring assigns to owner, asking the proxy's /shard endpoint.
func pickTenant(ctx context.Context, t *topology, prefix, owner string) (string, error) {
	for i := 0; i < 64; i++ {
		name := prefix
		if i > 0 {
			name = prefix + "-" + strconv.Itoa(i)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.front+"/shard?tenant="+name, nil)
		if err != nil {
			return "", err
		}
		resp, err := t.client.Do(req)
		if err != nil {
			return "", err
		}
		var sh struct {
			Owner string `json:"owner"`
		}
		err = json.NewDecoder(resp.Body).Decode(&sh)
		resp.Body.Close()
		if err != nil {
			return "", fmt.Errorf("/shard: %w", err)
		}
		if sh.Owner == owner {
			return name, nil
		}
	}
	return "", fmt.Errorf("no tenant name with prefix %q maps to %s", prefix, owner)
}

// reply is the outcome of one checked request.
type reply struct {
	// complete is set when a 200 response was read in full.
	complete bool
	// problem says how the exchange failed or the response differed from
	// the reference; empty when the response is correct.
	problem string
}

// send posts one request and compares a 200 response with the reference
// bytes. Transport failures are reported in the reply, not as errors.
func send(ctx context.Context, t *topology, r request) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.front+t.path(r), bytes.NewReader(r.body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", r.ctype)
	resp, err := t.client.Do(req)
	if err != nil {
		return reply{problem: err.Error()}, nil
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{problem: err.Error()}, nil
	}
	if resp.StatusCode != http.StatusOK {
		return reply{problem: fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(got))}, nil
	}
	if !bytes.Equal(got, r.want) {
		return reply{complete: true, problem: fmt.Sprintf("%d response bytes differ from the %d reference bytes (first at %d)",
			len(got), len(r.want), firstDiff(got, r.want))}, nil
	}
	return reply{complete: true}, nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// sampleRequests builds the checked sample for input in: the same rows the
// load generator's body variants carry, with their reference responses.
func sampleRequests(p *servedParams, in *input, inIdx int) ([]request, error) {
	n := in.dirty.Len()
	var out []request
	for _, me := range p.mix {
		for v := 0; v < sampleVariants; v++ {
			switch me.Op {
			case loadgen.OpCSV:
				idx := make([]int, p.streamRows)
				for i := range idx {
					idx[i] = (v*p.streamRows + i) % n
				}
				body, err := relCSV(in.dirty, idx)
				if err != nil {
					return nil, err
				}
				want, err := relCSV(in.ref.Relation, idx)
				if err != nil {
					return nil, err
				}
				out = append(out, request{in: inIdx, route: "/repair/csv", ctype: "text/csv", body: body, want: want, tuples: len(idx)})
			case loadgen.OpRepair:
				idx := make([]int, p.batch)
				for i := range idx {
					idx[i] = (v*p.batch + i) % n
				}
				body, want, err := in.jsonRepair(idx)
				if err != nil {
					return nil, err
				}
				out = append(out, request{in: inIdx, route: "/repair", ctype: "application/json", body: body, want: want, tuples: len(idx)})
			case loadgen.OpExplain:
				body, want, err := in.jsonExplain(v % n)
				if err != nil {
					return nil, err
				}
				out = append(out, request{in: inIdx, route: "/explain", ctype: "application/json", body: body, want: want, tuples: 1})
			default:
				return nil, fmt.Errorf("op %v has no reference", me.Op)
			}
		}
	}
	return out, nil
}

// relCSV renders the given rows of rel, header first, in encoding/csv's
// format: a request body from the dirty relation, or the response a
// repair endpoint must return from the reference repair.
func relCSV(rel *schema.Relation, idx []int) ([]byte, error) {
	out := schema.NewRelation(rel.Schema())
	for _, i := range idx {
		out.Append(rel.Row(i))
	}
	var buf bytes.Buffer
	err := schema.WriteCSV(&buf, out)
	return buf.Bytes(), err
}

// The JSON shapes below are the documented /repair and /explain response
// bodies (docs/SERVER.md), rebuilt here from the reference repair.
type stepJSON struct {
	Rule string `json:"rule"`
	Attr string `json:"attr"`
	From string `json:"from"`
	To   string `json:"to"`
}

type repairedJSON struct {
	Tuple []string   `json:"tuple"`
	Steps []stepJSON `json:"steps,omitempty"`
}

type repairJSON struct {
	Repaired []repairedJSON `json:"repaired"`
	Changed  int            `json:"changed"`
}

type explainJSON struct {
	Input   []string   `json:"input"`
	Output  []string   `json:"output"`
	Steps   []stepJSON `json:"steps,omitempty"`
	Assured []string   `json:"assured,omitempty"`
	Text    string     `json:"text"`
}

// indentJSON encodes v the way the server writes responses.
func indentJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// jsonRepair builds a /repair request over the given rows and its
// reference response. Each repaired tuple must equal the reference
// relation's row; the steps come from the Linear chase of that tuple.
func (in *input) jsonRepair(idx []int) (body, want []byte, err error) {
	tuples := make([][]string, len(idx))
	resp := repairJSON{Repaired: make([]repairedJSON, 0, len(idx))}
	for k, i := range idx {
		t := in.dirty.Row(i)
		tuples[k] = t
		fixed, steps := in.rep.RepairTuple(t, repair.Linear)
		if !slices.Equal(fixed, in.ref.Relation.Row(i)) {
			return nil, nil, fmt.Errorf("row %d: RepairTuple %v differs from RepairRelation %v", i, fixed, in.ref.Relation.Row(i))
		}
		rt := repairedJSON{Tuple: fixed}
		for _, st := range steps {
			rt.Steps = append(rt.Steps, stepJSON{Rule: st.Rule.Name(), Attr: st.Attr, From: st.From, To: st.To})
		}
		if len(steps) > 0 {
			resp.Changed++
		}
		resp.Repaired = append(resp.Repaired, rt)
	}
	if body, err = json.Marshal(map[string]any{"tuples": tuples}); err != nil {
		return nil, nil, err
	}
	want, err = indentJSON(resp)
	return body, want, err
}

// jsonExplain builds an /explain request for one row and its reference.
func (in *input) jsonExplain(i int) (body, want []byte, err error) {
	t := in.dirty.Row(i)
	ex := in.rep.Explain(t, repair.Linear)
	if !slices.Equal(ex.Output, in.ref.Relation.Row(i)) {
		return nil, nil, fmt.Errorf("row %d: Explain output %v differs from RepairRelation", i, ex.Output)
	}
	resp := explainJSON{Input: ex.Input, Output: ex.Output, Assured: ex.Assured, Text: ex.String()}
	for _, st := range ex.Steps {
		resp.Steps = append(resp.Steps, stepJSON{Rule: st.Rule.Name(), Attr: st.Attr, From: st.From, To: st.To})
	}
	if body, err = json.Marshal(map[string]any{"tuple": t}); err != nil {
		return nil, nil, err
	}
	want, err = indentJSON(resp)
	return body, want, err
}

// firstAnswer sends each request until a 200 response arrives, retrying
// while the system is still coming up, and records a mismatch when that
// response is not the reference. It fails after timeout without one.
func firstAnswer(ctx context.Context, t *topology, reqs []request, timeout time.Duration, o *outcome) error {
	deadline := time.Now().Add(timeout)
	for _, r := range reqs {
		for {
			rp, err := send(ctx, t, r)
			if err != nil {
				return err
			}
			if rp.complete {
				o.attempted++
				if rp.problem != "" {
					o.mismatch("first response to %s: %s", t.path(r), rp.problem)
				}
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("no response to %s within %v: %s", t.path(r), timeout, rp.problem)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// checkSample sends every sample request once and counts mismatches.
func checkSample(ctx context.Context, t *topology, sample []request, o *outcome, when string) error {
	for i, r := range sample {
		rp, err := send(ctx, t, r)
		if err != nil {
			return err
		}
		o.attempted++
		if rp.problem != "" {
			o.mismatch("%s sample %d (%s): %s", when, i, t.path(r), rp.problem)
		}
	}
	return nil
}

// loadResult merges the reports of the load generators of one phase set.
type loadResult struct {
	latency, service                        loadgen.Hist
	attempted, ok, shed, errs, trunc, drops int64
	// tuples counts tuples in OK responses over every phase, warm-up
	// included; wall is the time from the first dispatch to the last
	// response.
	tuples int64
	wall   time.Duration
}

func (l *loadResult) failed() int64 { return l.shed + l.errs + l.trunc + l.drops }

// offer drives the topology open-loop through internal/loadgen with the
// given phases at total rate rps, through client, with at most conns
// requests in flight. The proxy workload runs one generator per tenant,
// splitting the rate by hotFrac and the connections evenly (at least one
// each).
func offer(ctx context.Context, e *env, p *servedParams, t *topology, client *http.Client, ins []*input, rps float64, conns, queueCap int, phases []loadgen.Phase) (*loadResult, error) {
	type share struct {
		in     *input
		tenant string
		frac   float64
		conns  int
	}
	shares := []share{{ins[0], "", 1, conns}}
	if p.proxy {
		half := max(1, conns/2)
		shares = []share{{ins[0], t.tenants[0], p.hotFrac, half}, {ins[1], t.tenants[1], 1 - p.hotFrac, half}}
	}
	reps := make([]*loadgen.Report, len(shares))
	errs := make([]error, len(shares))
	var wg sync.WaitGroup
	start := time.Now()
	for i, sh := range shares {
		cfg := loadgen.Config{
			BaseURL:    t.front,
			Mix:        p.mix,
			Header:     sh.in.dirty.Schema().Attrs(),
			Rows:       rowsOf(sh.in.dirty),
			Batch:      p.batch,
			StreamRows: p.streamRows,
			Conns:      sh.conns,
			QueueCap:   queueCap,
			Seed:       e.seed + int64(i),
			Client:     client,
		}
		if sh.tenant != "" {
			cfg.Tenants = []string{sh.tenant}
		}
		for _, ph := range phases {
			ph.RPS = rps * sh.frac
			cfg.Phases = append(cfg.Phases, ph)
		}
		wg.Add(1)
		go func(i int, cfg loadgen.Config) {
			defer wg.Done()
			reps[i], errs[i] = loadgen.Run(ctx, cfg)
		}(i, cfg)
	}
	wg.Wait()
	l := &loadResult{wall: time.Since(start)}
	for i, rep := range reps {
		if errs[i] != nil {
			return nil, errs[i]
		}
		l.latency.Merge(&rep.Latency)
		l.service.Merge(&rep.Service)
		l.attempted += rep.Attempted
		l.ok += rep.OK
		l.shed += rep.Shed
		l.errs += rep.Errors
		l.trunc += rep.Truncated
		l.drops += rep.Dropped
		for _, ps := range rep.Phases {
			l.tuples += ps.Tuples.Load()
		}
	}
	return l, nil
}

func rowsOf(rel *schema.Relation) [][]string {
	rows := make([][]string, rel.Len())
	for i := range rows {
		rows[i] = rel.Row(i)
	}
	return rows
}

// tuplesOf is the tuple count of a 200 response to the given request path.
func (p *servedParams) tuplesOf(path string) int64 {
	switch {
	case strings.HasSuffix(path, "/repair/csv"):
		return int64(p.streamRows)
	case strings.HasSuffix(path, "/explain"):
		return 1
	default:
		return int64(p.batch)
	}
}

// completion is one 200 response read to its end.
type completion struct {
	at     time.Time
	tuples int64
}

// completions is an http.RoundTripper that records when the body of each
// 200 response was read to its end, and the tuples it carried.
type completions struct {
	next   http.RoundTripper
	tuples func(path string) int64
	mu     sync.Mutex
	done   []completion
}

func (c *completions) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(r)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	resp.Body = &doneBody{ReadCloser: resp.Body, c: c, tuples: c.tuples(r.URL.Path)}
	return resp, nil
}

func (c *completions) reset() {
	c.mu.Lock()
	c.done = c.done[:0]
	c.mu.Unlock()
}

// doneBody records its completion the first time a read reaches EOF.
type doneBody struct {
	io.ReadCloser
	c      *completions
	tuples int64
	eof    bool
}

func (b *doneBody) Read(buf []byte) (int, error) {
	n, err := b.ReadCloser.Read(buf)
	if err == io.EOF && !b.eof {
		b.eof = true
		b.c.mu.Lock()
		b.c.done = append(b.c.done, completion{at: time.Now(), tuples: b.tuples})
		b.c.mu.Unlock()
	}
	return n, err
}

// loadRounds is how many nominal and saturation slices a served run
// alternates; satGroups is how many runs of responses each saturation
// slice is cut into.
const (
	loadRounds = 4
	satGroups  = 8
)

// groupRates sorts done by completion time and cuts everything after the
// first completion into equal runs of consecutive completions: groups of
// them, or one per completion when there are fewer. A run's rate is its
// tuples over the time from the completion before it to its last one.
// Completions left over past the last full run are ignored; fewer than
// two completions give no rate.
func groupRates(done []completion, groups int) []float64 {
	groups = min(groups, len(done)-1)
	if groups < 1 {
		return nil
	}
	d := append([]completion(nil), done...)
	sort.Slice(d, func(i, j int) bool { return d[i].at.Before(d[j].at) })
	k := (len(d) - 1) / groups
	rates := make([]float64, 0, groups)
	for g := 0; g < groups; g++ {
		first, last := g*k+1, (g+1)*k
		var tuples int64
		for _, c := range d[first : last+1] {
			tuples += c.tuples
		}
		if span := d[last].at.Sub(d[first-1].at); span > 0 {
			rates = append(rates, float64(tuples)/span.Seconds())
		}
	}
	return rates
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runServed measures a served workload end to end.
func runServed(ctx context.Context, e *env, wl *workload, ins []*input) (*outcome, error) {
	p := wl.served
	o := newOutcome()
	var firsts, sample []request
	for i, in := range ins {
		reqs, err := sampleRequests(p, in, i)
		if err != nil {
			return nil, err
		}
		firsts = append(firsts, reqs[0])
		sample = append(sample, reqs...)
	}

	// Set-up: spawn to the first response through the whole topology (for
	// tenants, including their cold compile), checked against the
	// reference, repeated; the last topology stays up for the measurement.
	var setup []float64
	var t *topology
	for i := 0; i < setupReps; i++ {
		if t != nil {
			t.stop()
		}
		start := time.Now()
		var err error
		t, err = startTopology(ctx, e, p, ins, fmt.Sprintf("setup%d", i))
		if err != nil {
			return nil, err
		}
		if err := firstAnswer(ctx, t, firsts, 30*time.Second, o); err != nil {
			t.stop()
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer t.stop()
	o.set("setup_s", "s", setup)
	if err := checkSample(ctx, t, sample, o, "pre-load"); err != nil {
		return nil, err
	}

	// The load alternates loadRounds slices at the nominal rate with as
	// many at saturation, so latency, CPU and capacity sample the same
	// stretches of a host whose speed drifts within a run, and each figure
	// spans the whole run rather than one part of it.
	slice := func(share float64) time.Duration {
		return time.Duration(e.seconds * share / loadRounds * float64(time.Second))
	}
	// Saturation: offered well above the knee with a queue no deeper than
	// the connection count, every connection stays busy and the excess is
	// dropped at the generator. Each slice's responses, in the order they
	// completed, are cut into satGroups runs; tps is the median of the
	// runs' tuples per second, so a host stall moves a few runs and not
	// the figure.
	rec := &completions{next: &http.Transport{MaxIdleConns: e.nproc, MaxIdleConnsPerHost: e.nproc}, tuples: p.tuplesOf}
	satClient := &http.Client{Transport: rec, Timeout: t.client.Timeout}
	defer satClient.CloseIdleConnections()
	var latency, service loadgen.Hist
	var cpu time.Duration
	var nomTuples, satOK, satDrops, satTuples int64
	var satWall time.Duration
	var rates []float64
	for r := 0; r < loadRounds; r++ {
		phases := []loadgen.Phase{{RPS: 1, Duration: slice(0.6)}}
		if r == 0 {
			phases = append([]loadgen.Phase{{RPS: 1, Duration: time.Second, Warmup: true}}, phases...)
		}
		var lr *loadResult
		var cpu0, cpu1 time.Duration
		err := o.unstalled("nominal slice", func() error {
			var err error
			if cpu0, err = cpuTimeAll(t.servers); err != nil {
				return err
			}
			lr, err = offer(ctx, e, p, t, t.client, ins, p.nominalRPS, e.nproc, 0, phases)
			if err != nil {
				return err
			}
			if cpu1, err = cpuTimeAll(t.servers); err != nil {
				return err
			}
			o.attempted += lr.attempted
			if f := lr.failed(); f > 0 {
				o.failed += f
				o.mismatches = append(o.mismatches, fmt.Sprintf("nominal %.0f rps: %d shed, %d errors, %d truncated, %d dropped",
					p.nominalRPS, lr.shed, lr.errs, lr.trunc, lr.drops))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		latency.Merge(&lr.latency)
		service.Merge(&lr.service)
		cpu += cpu1 - cpu0
		nomTuples += lr.tuples

		var sat *loadResult
		err = o.unstalled("saturation slice", func() error {
			rec.reset()
			var err error
			sat, err = offer(ctx, e, p, t, satClient, ins, p.saturateRPS, p.saturateConns, p.saturateConns, []loadgen.Phase{
				{RPS: 1, Duration: slice(0.4)},
			})
			if err != nil {
				return err
			}
			// Drops are how the generator sheds the excess it offers on
			// purpose; everything it did send must succeed.
			o.attempted += sat.attempted - sat.drops
			if f := sat.shed + sat.errs + sat.trunc; f > 0 {
				o.failed += f
				o.mismatches = append(o.mismatches, fmt.Sprintf("saturation %.0f rps: %d shed, %d errors, %d truncated",
					p.saturateRPS, sat.shed, sat.errs, sat.trunc))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rs := groupRates(rec.done, satGroups)
		if len(rs) == 0 {
			return nil, fmt.Errorf("saturation slice: %d responses completed, too few to measure tps", len(rec.done))
		}
		rates = append(rates, rs...)
		satOK += sat.ok
		satDrops += sat.drops
		satTuples += sat.tuples
		satWall += sat.wall
	}

	q := func(x float64) float64 { return ms(latency.Quantile(x)) }
	n := int(latency.Count())
	o.samples["p50_ms"] = summary{N: n, Median: q(0.5), Q1: q(0.25), Q3: q(0.75)}
	o.metrics["p50_ms"] = metric{Value: q(0.5), Unit: "ms"}
	// The tail is recorded, not gated: on a shared 2-vCPU host its
	// run-to-run spread exceeds the largest usable bound (see README.md).
	o.samples["p90_ms"] = summary{N: n, Median: q(0.9), Q1: q(0.85), Q3: q(0.95)}
	o.samples["p99_ms"] = summary{N: n, Median: q(0.99), Q1: q(0.98), Q3: q(0.995)}
	o.samples["service_p50_ms"] = summary{N: n, Median: ms(service.Quantile(0.5)), Q1: ms(service.Quantile(0.25)), Q3: ms(service.Quantile(0.75))}
	cpuPer := float64(cpu) / float64(time.Microsecond) / float64(max(nomTuples, 1))
	o.set("cpu_us_per_tuple", "us", []float64{cpuPer})
	logf("nominal %.0f rps: %d requests, p50 %.2fms p90 %.2fms p99 %.2fms service p50 %.2fms, %.3f us cpu/tuple",
		p.nominalRPS, n, q(0.5), q(0.9), q(0.99), ms(service.Quantile(0.5)), cpuPer)
	o.set("tps", "tuples/s", rates)
	logf("saturation %.0f rps offered on %d connections: %d ok, %d dropped; %.0f tuples/s (median of %d runs of responses), %.0f over the slices",
		p.saturateRPS, p.saturateConns, satOK, satDrops, o.metrics["tps"].Value, len(rates), float64(satTuples)/satWall.Seconds())

	if err := checkSample(ctx, t, sample, o, "post-load"); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(t.servers)
	if err != nil {
		return nil, err
	}
	o.set("rss_mb", "MB", []float64{rss})
	return o, nil
}
