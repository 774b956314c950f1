// Package server exposes a fixing-rule repairer over HTTP, the deployment
// shape the paper's data-monitoring scenario calls for: incoming tuples are
// repaired on the wire, with no user in the loop. Standard library only.
//
// The server is built to be operated, not just run: every request passes
// through a middleware that records metrics into an internal/obs registry,
// repair endpoints sit behind a semaphore that sheds load with 503 +
// Retry-After, request bodies are capped, per-request deadlines propagate
// into streaming repairs, and the whole ruleset can be swapped atomically
// while traffic flows (POST /reload, or SIGHUP via fixserve). Errors reach
// clients as a JSON envelope with stable codes, never raw internal error
// strings.
//
// Every served ruleset lives in one scope type (tenant.go): the default
// ruleset is the scope Server.def, absent on a tenants-only node, and
// each tenant is a scope of its own. All scopes share one install path,
// (*scope).reload, which refuses any ruleset the consistency check
// rejects, and one admission path, serveScope (middleware.go).
//
// Endpoints:
//
//	GET  /healthz      liveness probe
//	GET  /metrics      Prometheus text exposition
//	GET  /stats        service counters, latency quantiles, ruleset version
//	GET  /quality      windowed data-quality rates + drift verdicts (quality.go)
//	GET  /rules        the ruleset, as DSL (default) or JSON (?format=json)
//	GET  /rules/stats  rule-count / size / per-target statistics
//	POST /repair       JSON {"tuples": [[...], ...]} → repaired tuples + steps
//	POST /repair/csv   CSV stream in (header must match schema), CSV out;
//	                   Content-Type application/x-fcol switches the body to
//	                   the columnar frame format (response follows), and
//	                   Accept application/x-fcol requests columnar output
//	                   for a CSV body
//	POST /explain      JSON {"tuple": [...]} → repair provenance
//	POST /reload       reload the ruleset through the configured loader
//
// With Config.Tenants set, the same surface is additionally served per
// tenant under /t/{tenant}/ (repair, repair/csv, explain, rules,
// rules/stats, stats, reload, debug/traces), each tenant against its own
// scope, resolved through an LRU cache with singleflight loads and
// per-tenant quotas — see tenant.go and tenant_routes.go. NewProxy builds
// the companion shard router that forwards tenant routes to the owning
// worker of a consistent-hash ring — see proxy.go.
package server

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"fixrule/internal/core"
	"fixrule/internal/obs"
	"fixrule/internal/obs/window"
	"fixrule/internal/repair"
	"fixrule/internal/ruleio"
	"fixrule/internal/schema"
	"fixrule/internal/store"
	"fixrule/internal/trace"
)

// Response headers naming the ruleset a request was served with; under hot
// reload they let a client attribute every response to exactly one ruleset
// version.
const (
	VersionHeader = "X-Fixserve-Ruleset-Version"
	HashHeader    = "X-Fixserve-Ruleset-Hash"
	// RequestIDHeader carries the server-assigned request ID back to the
	// client; the same ID appears on the request's log line and inside any
	// error envelope, so a 503 or 413 can be matched to the log that
	// explains it.
	RequestIDHeader = "X-Request-Id"
)

// Config tunes the service's operational limits. The zero value selects
// production-safe defaults.
type Config struct {
	// MaxBodyBytes caps POST bodies (http.MaxBytesReader); <= 0 selects
	// 32 MiB.
	MaxBodyBytes int64
	// MaxInFlight bounds concurrently served repair requests; excess
	// requests are shed with 503 + Retry-After. <= 0 selects 64.
	MaxInFlight int
	// RequestTimeout bounds each repair request, propagated via context
	// into streaming repair; <= 0 selects 60s.
	RequestTimeout time.Duration
	// StreamWorkers sets the worker count for POST /repair/csv: values > 1
	// run the stream's worker pool (identical bytes and stats, higher
	// throughput on multi-core hosts); <= 1 runs its sequential loop. The
	// fixserve -stream-workers flag maps here; 0 on that flag resolves to
	// GOMAXPROCS before it reaches this struct.
	StreamWorkers int
	// Loader supplies a fresh ruleset for POST /reload (and SIGHUP in
	// fixserve). nil disables reloading.
	Loader func() (*core.Ruleset, error)
	// Registry receives the service metrics; nil allocates a private one.
	Registry *obs.Registry
	// Logger receives structured request and operational logs; nil selects
	// a text handler on stderr at Info level.
	Logger *slog.Logger
	// Tracer records request traces for /debug/traces and log correlation;
	// nil builds a private tracer with sampling disabled (request IDs and
	// trace IDs are still issued, and errored requests are still retained).
	Tracer *trace.Tracer
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose internals and cost CPU, so the operator must
	// opt in (fixserve -pprof).
	EnablePprof bool
	// Tenants enables the multi-tenant surface under /t/{tenant}/; nil
	// leaves the server single-tenant. See TenantOptions.
	Tenants *TenantOptions
	// QualityWindow sets the live telemetry window GET /quality reports
	// over; <= 0 selects one minute.
	QualityWindow time.Duration
	// QualityBaseline sets the baseline window the drift verdicts compare
	// the live window against; <= 0 selects ten minutes.
	QualityBaseline time.Duration
	// QualityBuckets sets each quality window's ring size (the bucket
	// resolution is span/buckets); <= 0 selects 12.
	QualityBuckets int
	// QualityClock overrides the telemetry clock; nil selects time.Now.
	// Tests inject a fake clock to drive bucket rotation deterministically.
	QualityClock window.Clock
	// QualityThresholds tunes the drift classification; zero fields select
	// the window.DefaultThresholds values.
	QualityThresholds window.Thresholds
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if c.Tracer == nil {
		c.Tracer = trace.New(trace.Options{})
	}
	return c
}

// RulesetHash fingerprints a ruleset: the first 12 hex digits of the
// SHA-256 of its canonical DSL form. Stable across processes, so two
// replicas serving the same rules report the same hash.
func RulesetHash(rs *core.Ruleset) string {
	sum := sha256.Sum256([]byte(ruleio.Format(rs)))
	return hex.EncodeToString(sum[:6])
}

// Server handles repair requests against atomically swappable rulesets.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	def    *scope // the default ruleset; nil on a tenants-only node
	sem    chan struct{}
	reg    *obs.Registry
	m      metrics
	tracer *trace.Tracer
	qcfg   qualityConfig

	// Multi-tenant state; nil unless Config.Tenants was set.
	tenants      *tenantRegistry
	tenantRoutes map[string]tenantRoute

	// Request IDs are a random per-process prefix plus an atomic counter:
	// unique across restarts and replicas, orderable within one process, and
	// cheaper than a fresh random ID per request.
	reqPrefix  string
	reqCounter atomic.Uint64
}

// New builds the HTTP handler for a repairer with default limits and no
// reload loader.
func New(rep *repair.Repairer) *Server { return NewWithConfig(rep, Config{}) }

// NewWithConfig builds the HTTP handler with explicit operational limits.
// rep is served as version 1 of the default ruleset; Config.Loader, when
// set, supplies the next ones.
func NewWithConfig(rep *repair.Repairer, cfg Config) *Server {
	cfg = cfg.withDefaults()
	def := &scope{load: cfg.Loader, maxBody: cfg.MaxBodyBytes}
	def.eng.Store(newEngine(def, rep, 1))
	return newServer(cfg, def)
}

// NewTenantOnly builds a worker node that serves tenant routes
// exclusively: Config.Tenants.Loader is required, no default ruleset is
// loaded, and the single-tenant ruleset routes answer 404
// no_default_ruleset. Probe and operator endpoints (/healthz, /metrics,
// /stats, /debug/traces) keep working and carry no ruleset identity.
func NewTenantOnly(cfg Config) (*Server, error) {
	if cfg.Tenants == nil || cfg.Tenants.Loader == nil {
		return nil, errors.New("server: NewTenantOnly requires Config.Tenants.Loader")
	}
	return newServer(cfg.withDefaults(), nil), nil
}

// newServer assembles a server around its default scope (nil for none).
func newServer(cfg Config, def *scope) *Server {
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		def:       def,
		sem:       make(chan struct{}, cfg.MaxInFlight),
		reg:       cfg.Registry,
		tracer:    cfg.Tracer,
		reqPrefix: newRequestPrefix(),
	}
	s.qcfg = resolveQualityConfig(cfg)
	s.initMetrics()
	s.mux.HandleFunc("/healthz", s.wrap("/healthz", anyNode, s.handleHealth))
	s.mux.HandleFunc("/metrics", s.wrap("/metrics", anyNode, s.handleMetrics))
	s.mux.HandleFunc("/stats", s.wrap("/stats", anyNode, s.handleServerStats))
	s.mux.HandleFunc("/quality", s.wrap("/quality", anyNode, s.handleQuality))
	s.mux.HandleFunc("/rules", s.wrap("/rules", rulesetRoute, s.handleRules))
	s.mux.HandleFunc("/rules/stats", s.wrap("/rules/stats", rulesetRoute, s.handleStats))
	s.mux.HandleFunc("/repair", s.wrap("/repair", repairRoute, s.handleRepair))
	s.mux.HandleFunc("/repair/csv", s.wrap("/repair/csv", repairRoute, s.handleRepairCSV))
	s.mux.HandleFunc("/explain", s.wrap("/explain", repairRoute, s.handleExplain))
	s.mux.HandleFunc("/reload", s.wrap("/reload", rulesetRoute, s.handleReload))
	s.mux.HandleFunc("/debug/traces", s.wrap("/debug/traces", anyNode, s.handleTraces))
	s.mux.HandleFunc("/debug/traces/", s.wrap("/debug/traces", anyNode, s.handleTraces))
	if cfg.Tenants != nil && cfg.Tenants.Loader != nil {
		s.tenants = newTenantRegistry(cfg.Tenants.withDefaults(cfg.MaxBodyBytes), s.reg, s.qcfg)
		s.tenantRoutes = map[string]tenantRoute{
			"/repair":       {"/t/{tenant}/repair", true, s.handleRepair},
			"/repair/csv":   {"/t/{tenant}/repair/csv", true, s.handleRepairCSV},
			"/explain":      {"/t/{tenant}/explain", true, s.handleExplain},
			"/rules":        {"/t/{tenant}/rules", false, s.handleRules},
			"/rules/stats":  {"/t/{tenant}/rules/stats", false, s.handleStats},
			"/stats":        {"/t/{tenant}/stats", false, s.handleTenantStats},
			"/quality":      {"/t/{tenant}/quality", false, s.handleQuality},
			"/reload":       {"/t/{tenant}/reload", false, nil},
			"/debug/traces": {"/t/{tenant}/debug/traces", false, nil},
		}
		s.mux.HandleFunc("/t/", s.handleTenant)
	}
	if cfg.EnablePprof {
		s.mountPprof()
	}
	return s
}

// newRequestPrefix draws the per-process request-ID prefix.
func newRequestPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		binaryFallback := time.Now().UnixNano()
		return fmt.Sprintf("%08x", uint32(binaryFallback))
	}
	return hex.EncodeToString(b[:])
}

// nextRequestID issues the next request ID.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.reqPrefix, s.reqCounter.Add(1))
}

// Tracer returns the tracer the server records request traces into.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry returns the metrics registry the server records into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Ruleset returns the currently served default ruleset, or nil on a
// tenants-only node.
func (s *Server) Ruleset() *core.Ruleset {
	if s.def == nil {
		return nil
	}
	return s.def.eng.Load().rep.Ruleset()
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request, _ *engine) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request, eng *engine) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "dsl":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, ruleio.Format(eng.rep.Ruleset()))
	case "json":
		data, err := ruleio.MarshalJSON(eng.rep.Ruleset())
		if err != nil {
			// Marshalling a checked in-memory ruleset failing is a server
			// bug; the detail belongs in the log, not the response.
			s.cfg.Logger.Error("rules marshal failed",
				"request_id", w.Header().Get(RequestIDHeader), "err", err)
			s.writeError(w, http.StatusInternalServerError, codeInternal, "failed to encode ruleset")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	default:
		s.writeError(w, http.StatusBadRequest, codeBadFormat, "unknown format (want dsl or json)")
	}
}

// statsResponse is the /rules/stats payload.
type statsResponse struct {
	Schema    string         `json:"schema"`
	Version   int64          `json:"ruleset_version"`
	Hash      string         `json:"ruleset_hash"`
	Rules     int            `json:"rules"`
	Size      int            `json:"size"`
	PerTarget map[string]int `json:"per_target"`
	Negatives int            `json:"negative_patterns"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, eng *engine) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	rs := eng.rep.Ruleset()
	resp := statsResponse{
		Schema:    rs.Schema().String(),
		Version:   eng.version,
		Hash:      eng.hash,
		Rules:     rs.Len(),
		Size:      rs.Size(),
		PerTarget: make(map[string]int),
	}
	for _, rule := range rs.Rules() {
		resp.PerTarget[rule.Target()]++
		resp.Negatives += rule.NegativeSize()
	}
	writeJSON(w, resp)
}

// repairRequest is the /repair request body.
type repairRequest struct {
	Tuples [][]string `json:"tuples"`
	// Algorithm selects "linear" (default) or "chase".
	Algorithm string `json:"algorithm,omitempty"`
}

// repairedTuple is one row of the /repair response.
type repairedTuple struct {
	Tuple []string     `json:"tuple"`
	Steps []stepRecord `json:"steps,omitempty"`
}

type stepRecord struct {
	Rule string `json:"rule"`
	Attr string `json:"attr"`
	From string `json:"from"`
	To   string `json:"to"`
}

type repairResponse struct {
	Repaired []repairedTuple `json:"repaired"`
	Changed  int             `json:"changed"`
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request, eng *engine) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, http.MethodPost)
		return
	}
	var req repairRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.badBody(w, err)
		return
	}
	alg, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		//fix:allow errcode: parseAlgorithm's message quotes only the client's own algorithm parameter
		s.writeError(w, http.StatusBadRequest, codeBadAlgorithm, err.Error())
		return
	}
	arity := eng.rep.Ruleset().Schema().Arity()
	ctx := r.Context()
	sp := trace.SpanFromContext(ctx).StartChild("repair.tuples")
	var steps, oov int
	oovAcc := make([]int64, arity)
	changedBy := make(map[string]int)
	perRule := make(map[string]int)
	resp := repairResponse{Repaired: make([]repairedTuple, 0, len(req.Tuples))}
	for i, vals := range req.Tuples {
		if i&63 == 0 && ctx.Err() != nil {
			sp.SetError("deadline exceeded")
			sp.End()
			s.writeError(w, http.StatusRequestTimeout, codeTimeout,
				fmt.Sprintf("deadline exceeded after %d tuples", i))
			return
		}
		if len(vals) != arity {
			sp.SetError("arity mismatch")
			sp.End()
			s.writeError(w, http.StatusBadRequest, codeArityMismatch,
				fmt.Sprintf("tuple %d has %d values, schema needs %d", i, len(vals), arity))
			return
		}
		oov += eng.rep.OOVCellsByAttr(schema.Tuple(vals), oovAcc)
		fixed, applied := eng.rep.RepairTuple(schema.Tuple(vals), alg)
		rt := repairedTuple{Tuple: fixed}
		for _, st := range applied {
			rt.Steps = append(rt.Steps, stepRecord{
				Rule: st.Rule.Name(), Attr: st.Attr, From: st.From, To: st.To,
			})
			changedBy[st.Attr]++
			perRule[st.Rule.Name()]++
			sp.AddEvent("chase.step",
				trace.Int("row", i),
				trace.String("rule", st.Rule.Name()),
				trace.String("attr", st.Attr),
				trace.String("from", st.From),
				trace.String("to", st.To),
			)
		}
		if len(applied) > 0 {
			resp.Changed++
		}
		steps += len(applied)
		resp.Repaired = append(resp.Repaired, rt)
	}
	sp.SetAttr(
		trace.Int("tuples", len(req.Tuples)),
		trace.Int("changed", resp.Changed),
		trace.Int("steps", steps),
		trace.Int("oov", oov),
	)
	sp.End()
	s.observeOutcome(eng, outcome{tuples: len(req.Tuples), repaired: resp.Changed, steps: steps,
		oov: oov, changed: changedBy, oovBy: oovAcc, perRule: perRule})
	writeJSON(w, resp)
}

func (s *Server) handleRepairCSV(w http.ResponseWriter, r *http.Request, eng *engine) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, http.MethodPost)
		return
	}
	alg, err := parseAlgorithm(r.URL.Query().Get("algorithm"))
	if err != nil {
		//fix:allow errcode: parseAlgorithm's message quotes only the client's own algorithm parameter
		s.writeError(w, http.StatusBadRequest, codeBadAlgorithm, err.Error())
		return
	}
	// Content negotiation: an application/x-fcol body streams the columnar
	// frame format and the response mirrors it; a CSV body with Accept:
	// application/x-fcol converts to columnar on the way out.
	inFcol := mediaType(r.Header.Get("Content-Type")) == store.ColumnarContentType
	accept := r.Header.Get("Accept")
	// A columnar body is answered in kind; an Accept header that names
	// neither the columnar type nor a wildcard refuses that.
	outFcol := acceptsColumnar(accept) || (inFcol && (accept == "" || acceptsAny(accept)))
	if inFcol && !outFcol {
		s.writeError(w, http.StatusNotAcceptable, codeBadFormat,
			"columnar request bodies are answered in kind; accept application/x-fcol")
		return
	}
	// The handler interleaves reads of the request body with writes of the
	// response; without full duplex, HTTP/1.1 closes the body once the
	// response buffer first flushes (~4 KiB out) and every larger stream
	// dies with "invalid Read on closed Body". Recorders and HTTP/2 may
	// not support the control; both already allow concurrent read/write.
	_ = http.NewResponseController(w).EnableFullDuplex()
	if outFcol {
		w.Header().Set("Content-Type", store.ColumnarContentType)
	} else {
		w.Header().Set("Content-Type", "text/csv")
	}
	// On a sampled request, a chase recorder captures which rules fired on
	// which rows (up to its tuple cap); the steps land on the span as events
	// so /debug/traces can show the request's actual repairs. Unsampled
	// requests pass a nil recorder, which the stream treats as free.
	sp := trace.SpanFromContext(r.Context())
	var rec *repair.ChaseRecorder
	if sp.Sampled() {
		rec = repair.NewChaseRecorder(0, 1, 0)
	}
	opts := repair.StreamOptions{
		Workers:     max(s.cfg.StreamWorkers, 1),
		QueueDepth:  s.m.streamQueue,
		BusyWorkers: s.m.streamBusy,
		Recorder:    rec,
	}
	if inFcol {
		opts.In = repair.Fcol
	}
	if outFcol {
		opts.Out = repair.Fcol
	}
	stats, err := eng.rep.Stream(r.Context(), r.Body, w, alg, opts)
	if err != nil {
		// The stream may be partially flushed; in that case the envelope
		// still reaches the client as trailing body content, which is the
		// best HTTP can do mid-stream.
		s.streamError(w, err)
		return
	}
	if rec != nil {
		addChaseEvents(sp, rec)
	}
	// Per-attribute fold: rule applications by target, iterating the rules
	// slice (not the PerRule map) for deterministic order.
	changedBy := make(map[string]int)
	for _, rule := range eng.rep.Ruleset().Rules() {
		if n := stats.PerRule[rule.Name()]; n > 0 {
			changedBy[rule.Target()] += n
		}
	}
	attrs := eng.rep.Ruleset().Schema().Attrs()
	oovBy := make([]int64, len(attrs))
	for i, a := range attrs {
		oovBy[i] = int64(stats.OOVByAttr[a])
	}
	s.observeOutcome(eng, outcome{tuples: stats.Rows, repaired: stats.Repaired, steps: stats.Steps,
		oov: stats.OOV, changed: changedBy, oovBy: oovBy, perRule: stats.PerRule})
}

// addChaseEvents surfaces a recorder's captured rule applications as span
// events, one per step, in row-then-application order — the same order
// (and the same strings) a repairlog of the request would hold.
func addChaseEvents(sp *trace.Span, rec *repair.ChaseRecorder) {
	for _, tt := range rec.Tuples() {
		for _, st := range tt.Steps {
			sp.AddEvent("chase.step",
				trace.Int("row", tt.Row),
				trace.Int("rule_index", st.RuleIndex),
				trace.String("rule", st.Rule),
				trace.String("attr", st.Attr),
				trace.String("from", st.From),
				trace.String("to", st.To),
			)
		}
	}
	if d := rec.DroppedTuples(); d > 0 {
		sp.SetAttr(trace.Int("chase_tuples_dropped", d))
	}
}

// explainRequest is the /explain request body.
type explainRequest struct {
	Tuple     []string `json:"tuple"`
	Algorithm string   `json:"algorithm,omitempty"`
}

type explainResponse struct {
	Input   []string     `json:"input"`
	Output  []string     `json:"output"`
	Steps   []stepRecord `json:"steps,omitempty"`
	Assured []string     `json:"assured,omitempty"`
	Text    string       `json:"text"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, eng *engine) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, http.MethodPost)
		return
	}
	var req explainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.badBody(w, err)
		return
	}
	if len(req.Tuple) != eng.rep.Ruleset().Schema().Arity() {
		s.writeError(w, http.StatusBadRequest, codeArityMismatch, "tuple arity mismatch")
		return
	}
	alg, err := parseAlgorithm(req.Algorithm)
	if err != nil {
		//fix:allow errcode: parseAlgorithm's message quotes only the client's own algorithm parameter
		s.writeError(w, http.StatusBadRequest, codeBadAlgorithm, err.Error())
		return
	}
	e := eng.rep.Explain(schema.Tuple(req.Tuple), alg)
	resp := explainResponse{
		Input: e.Input, Output: e.Output, Assured: e.Assured, Text: e.String(),
	}
	sp := trace.SpanFromContext(r.Context()).StartChild("repair.explain")
	changedBy := make(map[string]int)
	perRule := make(map[string]int)
	for _, st := range e.Steps {
		resp.Steps = append(resp.Steps, stepRecord{
			Rule: st.Rule.Name(), Attr: st.Attr, From: st.From, To: st.To,
		})
		changedBy[st.Attr]++
		perRule[st.Rule.Name()]++
		sp.AddEvent("chase.step",
			trace.String("rule", st.Rule.Name()),
			trace.String("attr", st.Attr),
			trace.String("from", st.From),
			trace.String("to", st.To),
		)
	}
	oovAcc := make([]int64, eng.rep.Ruleset().Schema().Arity())
	oov := eng.rep.OOVCellsByAttr(schema.Tuple(req.Tuple), oovAcc)
	sp.SetAttr(trace.Int("steps", len(e.Steps)), trace.Int("oov", oov))
	sp.End()
	repaired := 0
	if len(e.Steps) > 0 {
		repaired = 1
	}
	s.observeOutcome(eng, outcome{tuples: 1, repaired: repaired, steps: len(e.Steps),
		oov: oov, changed: changedBy, oovBy: oovAcc, perRule: perRule})
	writeJSON(w, resp)
}

// badBody maps a request-body decode failure to the envelope: an
// over-limit body is 413, anything else is the client's own malformed
// JSON, safe to echo.
func (s *Server) badBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	//fix:allow errcode: the JSON decode error describes the client's own request body, no server state
	s.writeError(w, http.StatusBadRequest, codeBadJSON, "bad request: "+err.Error())
}

// streamError maps a Stream failure to the envelope.
func (s *Server) streamError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		s.writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, http.StatusRequestTimeout, codeTimeout, "repair deadline exceeded")
	case errors.Is(err, context.Canceled):
		// The client went away; status is moot but record a 4xx, not a 5xx.
		s.writeError(w, 499, codeCanceled, "request cancelled")
	default:
		// Stream errors describe the client's own CSV (bad header, quoting,
		// arity); no internal state to leak.
		//fix:allow errcode: stream errors describe the client's own CSV, no server state
		s.writeError(w, http.StatusBadRequest, codeBadStream, err.Error())
	}
}

// mediaType extracts the bare media type of a Content-Type header value,
// dropping parameters and surrounding whitespace.
func mediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.ToLower(strings.TrimSpace(ct))
}

// acceptsColumnar reports whether an Accept header lists the columnar
// frame media type.
func acceptsColumnar(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		if mediaType(part) == store.ColumnarContentType {
			return true
		}
	}
	return false
}

// acceptsAny reports whether an Accept header carries a full or
// application-level wildcard.
func acceptsAny(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		switch mediaType(part) {
		case "*/*", "application/*":
			return true
		}
	}
	return false
}

func parseAlgorithm(name string) (repair.Algorithm, error) {
	switch name {
	case "", "linear", "lrepair":
		return repair.Linear, nil
	case "chase", "crepair":
		return repair.Chase, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want linear or chase)", name)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// SortedTargets returns the rule targets in deterministic order; exposed
// for diagnostic tooling built on the server.
func SortedTargets(rs *core.Ruleset) []string {
	set := map[string]struct{}{}
	for _, r := range rs.Rules() {
		set[r.Target()] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
