package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"fixrule/internal/obs"
	"fixrule/internal/trace"
)

// metrics holds the pre-registered instruments the request path touches.
// Everything is resolved to a pointer at construction, so serving a
// request performs only atomic adds — no registry lookups, no locks. The
// per-attribute series are the one exception: attributes can change on
// reload, so their counters resolve through an attrCounters cache, once
// per (request, attribute) — never per tuple.
type metrics struct {
	outcomeSeries
	requests    map[string]*obs.Counter // per endpoint
	errors4xx   map[string]*obs.Counter // per endpoint
	errors5xx   map[string]*obs.Counter // per endpoint
	shed        *obs.Counter
	reloads     *obs.Counter
	reloadFail  *obs.Counter
	inflight    *obs.Gauge
	version     *obs.Gauge
	streamQueue *obs.Gauge
	streamBusy  *obs.Gauge
	latency     *obs.Histogram
	win         windowGauges
}

// outcomeSeries are the repair-outcome instruments one telemetry scope
// feeds: the service-wide set, or one tenant's.
type outcomeSeries struct {
	tuples     *obs.Counter
	repaired   *obs.Counter
	rulesFired *obs.Counter
	oovCells   *obs.Counter
	changed    *attrCounters
	oov        *attrCounters
	quality    *qualityTracker
}

// attrCounters is one per-attribute counter family under fixed labels
// (none service-wide, the tenant label per tenant). Each attribute's
// series resolves once and is cached.
type attrCounters struct {
	reg        *obs.Registry
	name, help string
	labels     []string // fixed label pairs, attr follows them

	mu     sync.Mutex
	byAttr map[string]*obs.Counter
}

func newAttrCounters(reg *obs.Registry, name, help string, labels ...string) *attrCounters {
	return &attrCounters{reg: reg, name: name, help: help, labels: labels, byAttr: make(map[string]*obs.Counter)}
}

// get resolves the series for one attribute.
func (a *attrCounters) get(attr string) *obs.Counter {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.byAttr[attr]
	if c == nil {
		kv := append(a.labels[:len(a.labels):len(a.labels)], "attr", attr)
		c = a.reg.Counter(a.name, a.help, obs.Labels(kv...))
		a.byAttr[attr] = c
	}
	return c
}

// endpoints is the full routing surface; every metric family carrying an
// endpoint label is pre-registered over this list. Tenant routes use one
// template label per route, never the tenant ID — the tenant dimension
// lives on the dedicated fixserve_tenant_* series, so endpoint-label
// cardinality stays fixed no matter how many tenants are served.
var endpoints = []string{
	"/healthz", "/metrics", "/stats", "/quality", "/rules", "/rules/stats",
	"/repair", "/repair/csv", "/explain", "/reload", "/debug/traces",
	"/t/{tenant}",
	"/t/{tenant}/repair", "/t/{tenant}/repair/csv", "/t/{tenant}/explain",
	"/t/{tenant}/rules", "/t/{tenant}/rules/stats", "/t/{tenant}/stats",
	"/t/{tenant}/quality", "/t/{tenant}/reload", "/t/{tenant}/debug/traces",
}

func (s *Server) initMetrics() {
	r := s.reg
	s.m.requests = make(map[string]*obs.Counter, len(endpoints))
	s.m.errors4xx = make(map[string]*obs.Counter, len(endpoints))
	s.m.errors5xx = make(map[string]*obs.Counter, len(endpoints))
	for _, ep := range endpoints {
		s.m.requests[ep] = r.Counter("fixserve_requests_total",
			"HTTP requests served, by endpoint.", obs.Labels("endpoint", ep))
		s.m.errors4xx[ep] = r.Counter("fixserve_errors_total",
			"Error responses, by endpoint and status class.", obs.Labels("endpoint", ep, "class", "4xx"))
		s.m.errors5xx[ep] = r.Counter("fixserve_errors_total",
			"Error responses, by endpoint and status class.", obs.Labels("endpoint", ep, "class", "5xx"))
	}
	s.m.shed = r.Counter("fixserve_shed_total",
		"Requests shed with 503 because MaxInFlight was reached.", "")
	s.m.tuples = r.Counter("fixserve_tuples_total",
		"Tuples processed by the repair endpoints.", "")
	s.m.repaired = r.Counter("fixserve_tuples_repaired_total",
		"Tuples changed by at least one rule.", "")
	s.m.rulesFired = r.Counter("fixserve_rules_fired_total",
		"Total rule applications (repair steps).", "")
	s.m.oovCells = r.Counter("fixserve_oov_cells_total",
		"Input cells outside the ruleset vocabulary (unrepairable).", "")
	s.m.reloads = r.Counter("fixserve_reloads_total",
		"Successful ruleset reloads.", "")
	s.m.reloadFail = r.Counter("fixserve_reload_failures_total",
		"Ruleset reloads rejected (load error or inconsistent rules).", "")
	s.m.inflight = r.Gauge("fixserve_inflight_requests",
		"Requests currently being served.", "")
	s.m.version = r.Gauge("fixserve_ruleset_version",
		"Monotonic version of the served ruleset; bumps on every reload.", "")
	s.m.streamQueue = r.Gauge("fixserve_stream_queue_depth",
		"Chunks read but not yet claimed by a parallel stream worker.", "")
	s.m.streamBusy = r.Gauge("fixserve_stream_busy_workers",
		"Parallel stream workers currently repairing a chunk.", "")
	s.m.latency = r.Histogram("fixserve_request_duration_seconds",
		"Request latency.", "", obs.DefaultLatencyBuckets())
	s.m.win = windowGauges{
		requests: r.Gauge("fixserve_window_requests",
			"Data-plane requests in the live quality window.", ""),
		errors: r.Gauge("fixserve_window_errors",
			"Data-plane error responses (4xx+5xx) in the live quality window.", ""),
		shed: r.Gauge("fixserve_window_shed",
			"Requests shed in the live quality window.", ""),
		rows: r.Gauge("fixserve_window_rows",
			"Tuples processed in the live quality window.", ""),
		repaired: r.Gauge("fixserve_window_rows_repaired",
			"Tuples changed by at least one rule in the live quality window.", ""),
		steps: r.Gauge("fixserve_window_steps",
			"Rule applications in the live quality window, all rules.", ""),
		oov: r.Gauge("fixserve_window_oov_cells",
			"Out-of-vocabulary input cells in the live quality window.", ""),
		coverage: r.FloatGauge("fixserve_window_coverage_rate",
			"Share of windowed rows matched (and repaired) by at least one rule.", ""),
		oovRate: r.FloatGauge("fixserve_window_oov_rate",
			"Share of windowed input cells outside the ruleset vocabulary.", ""),
		errRate: r.FloatGauge("fixserve_window_error_rate",
			"Share of windowed data-plane requests answered 4xx/5xx.", ""),
	}
	r.AddScrapeHook(s.refreshWindowGauges)
	obs.RegisterRuntime(r, time.Now())
	r.Gauge("fixserve_build_info",
		"Build identity; value is always 1.",
		obs.Labels("version", buildVersion(), "go", runtime.Version())).Set(1)
	s.m.changed = newAttrCounters(r, "fixserve_cells_changed_total",
		"Cell writes by repairs (rule applications), by target attribute.")
	s.m.oov = newAttrCounters(r, "fixserve_cells_oov_total",
		"Input cells outside the ruleset vocabulary, by attribute.")
	s.m.quality = newQualityTracker(s.qcfg) // service-wide windowed quality telemetry
	if s.def != nil {
		s.def.gauge = s.m.version
		s.def.gauge.Set(1)
		// Pre-register the per-attribute series for the default schema so
		// they show up at 0 before the first repair.
		for _, a := range s.def.eng.Load().rep.Ruleset().Schema().Attrs() {
			s.m.changed.get(a)
			s.m.oov.get(a)
		}
	}
}

// buildVersion reports the module version stamped into the binary, or
// "unknown" for unstamped builds (go test, plain go build of a dirty tree).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// outcome is one request's repair aggregates.
type outcome struct {
	tuples, repaired, steps, oov int
	changed                      map[string]int // rule applications by target attribute
	oovBy                        []int64        // OOV cells by attribute position
	perRule                      map[string]int // rule applications by rule name
}

// observeOutcome folds one request's outcome into the service-wide series
// and — when the engine belongs to a tenant — that tenant's. Rules are
// iterated in ruleset order, not map order, so the set of per-rule window
// keys grows deterministically; one pass feeds both scopes.
func (s *Server) observeOutcome(eng *engine, o outcome) {
	now := s.m.quality.now()
	rs, tm := eng.rep.Ruleset(), eng.tm
	s.m.observe(now, rs.Schema().Attrs(), o)
	if tm != nil {
		tm.observe(now, rs.Schema().Attrs(), o)
	}
	if len(o.perRule) == 0 {
		return
	}
	for _, rule := range rs.Rules() {
		if n := o.perRule[rule.Name()]; n > 0 {
			s.m.quality.observeRule(now, rule.Name(), int64(n))
			if tm != nil {
				tm.quality.observeRule(now, rule.Name(), int64(n))
			}
		}
	}
}

// observe folds an outcome's totals and per-attribute counts into x,
// iterating the schema's attributes in order.
func (x *outcomeSeries) observe(now time.Time, attrs []string, o outcome) {
	x.tuples.Add(int64(o.tuples))
	x.repaired.Add(int64(o.repaired))
	x.rulesFired.Add(int64(o.steps))
	x.oovCells.Add(int64(o.oov))
	cells := int64(o.tuples) * int64(len(attrs))
	x.quality.observeTotals(now, int64(o.tuples), int64(o.repaired), int64(o.steps), int64(o.oov), cells)
	for i, a := range attrs {
		n, c := int64(o.changed[a]), o.oovBy[i]
		if n > 0 {
			x.changed.get(a).Add(n)
		}
		if c > 0 {
			x.oov.get(a).Add(c)
		}
		if n > 0 || c > 0 {
			x.quality.observeAttr(now, a, n, c)
		}
	}
}

// statusWriter records the response status so the middleware can classify
// the outcome after the handler returns. Flush passes through so the CSV
// streaming path keeps working behind the wrapper.
//
// A stream that fails after its first byte still writes an error
// envelope through WriteHeader. The 200 status line is already on the
// wire by then, so that second WriteHeader is not forwarded, but its
// status is what the request is recorded as: the metrics, the quality
// windows, the span and the access log count the failure, not the 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	first := sw.code == 0
	sw.code = code
	if first {
		sw.ResponseWriter.WriteHeader(code)
	}
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, which
// the CSV streaming handler needs for EnableFullDuplex.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

func (sw *statusWriter) status() int {
	if sw.code == 0 {
		return http.StatusOK
	}
	return sw.code
}

// handlerFunc is a request handler bound to one engine snapshot: the
// middleware loads the engine exactly once per request, so a concurrent
// reload can never mix two ruleset versions inside one response. The
// engine is nil on the anyNode routes of a node without a default
// ruleset.
type handlerFunc func(http.ResponseWriter, *http.Request, *engine)

// reqCtx is one request's instrumentation state, shared between the
// single-tenant wrap and the tenant router so both surfaces carry
// identical request IDs, traces, metrics and log lines.
type reqCtx struct {
	sw       *statusWriter
	endpoint string
	method   string
	reqID    string
	tr       *trace.Trace
	root     *trace.Span
	start    time.Time
	// dataPlane marks the admission-limited repair routes, whose traffic
	// the quality windows observe: there request and error rates say
	// something about the data being repaired rather than about scrapers
	// and probes.
	dataPlane bool
	// tenantQuality is set by serveScope on a tenant engine, so end() can
	// mirror the request/error observation into the tenant's quality
	// windows alongside the service-wide ones.
	tenantQuality *qualityTracker
}

// begin opens a request: endpoint counter, inflight gauge, request ID,
// trace (joined to the caller's when a valid traceparent arrived), and the
// correlation response headers. Callers must `defer s.end(c)`.
func (s *Server) begin(endpoint string, dataPlane bool, w http.ResponseWriter, r *http.Request) *reqCtx {
	start := time.Now()
	if c := s.m.requests[endpoint]; c != nil {
		c.Inc()
	}
	s.m.inflight.Add(1)

	// Every request gets a trace — joined to the caller's when a valid
	// traceparent arrived, fresh otherwise — so logs and error envelopes
	// always carry a trace ID; whether child spans are recorded is the
	// sampling decision inside StartRequest.
	reqID := s.nextRequestID()
	parent, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
	tr := s.tracer.StartRequest(endpoint, parent)
	root := tr.Root()
	root.SetAttr(
		trace.String("request_id", reqID),
		trace.String("method", r.Method),
		trace.String("endpoint", endpoint),
	)

	sw := &statusWriter{ResponseWriter: w}
	sw.Header().Set(RequestIDHeader, reqID)
	sw.Header().Set("traceparent", root.Context().Traceparent())
	return &reqCtx{
		sw: sw, endpoint: endpoint, method: r.Method,
		reqID: reqID, tr: tr, root: root, start: start, dataPlane: dataPlane,
	}
}

// end closes a request: status classification, latency (with a trace
// exemplar when sampled), the structured log line.
func (s *Server) end(c *reqCtx) {
	s.m.inflight.Add(-1)
	dur := time.Since(c.start)
	st := c.sw.status()
	c.root.SetAttr(trace.Int("status", st))
	if st >= 500 {
		// Server-side failures always keep their trace, sampled or
		// not, so /debug/traces has the evidence when it matters.
		c.root.SetError(http.StatusText(st))
	}
	c.tr.Finish()
	if c.tr.Sampled() {
		s.m.latency.ObserveExemplar(dur.Seconds(), c.tr.ID().String())
	} else {
		s.m.latency.Observe(dur.Seconds())
	}
	switch {
	case st >= 500:
		if e := s.m.errors5xx[c.endpoint]; e != nil {
			e.Inc()
		}
	case st >= 400:
		if e := s.m.errors4xx[c.endpoint]; e != nil {
			e.Inc()
		}
	}
	if c.dataPlane {
		now := s.m.quality.now()
		s.m.quality.observeRequest(now, st >= 400)
		if c.tenantQuality != nil {
			c.tenantQuality.observeRequest(now, st >= 400)
		}
	}
	s.logRequest(c.method, c.endpoint, st, dur, c.reqID, c.tr)
}

// retryAfter derives the Retry-After hint for a shed response from the
// observed overload depth rather than a hardcoded constant: at the moment
// of shed the repair semaphore is full, and every in-flight request beyond
// its capacity is concurrent demand the server is already refusing. The
// hint grows linearly with that excess — 1s at the brink, ~5s at double
// capacity, capped at 30s — so clients back off harder exactly when the
// server is deeper under water, instead of hammering a drowning server
// once a second.
func (s *Server) retryAfter() string {
	return strconv.FormatInt(retryAfterSecs(s.m.inflight.Load(), int64(cap(s.sem))), 10)
}

func retryAfterSecs(inflight, capacity int64) int64 {
	if capacity < 1 {
		capacity = 1
	}
	excess := inflight - capacity
	if excess < 0 {
		excess = 0
	}
	secs := 1 + 4*excess/capacity
	if secs > 30 {
		secs = 30
	}
	return secs
}

// routeKind says what a non-tenant route needs from the default scope.
type routeKind uint8

const (
	anyNode      routeKind = iota // served with or without a default ruleset
	rulesetRoute                  // reads the default ruleset: 404 no_default_ruleset without one
	repairRoute                   // a rulesetRoute that also passes the admission limits
)

// wrap is the middleware every non-tenant route passes through: request ID
// issuance, trace extraction/injection (W3C traceparent), request counting
// and latency, and the structured request log line, then serveScope
// against the default scope. Tenant routes run the same sequence through
// handleTenant.
func (s *Server) wrap(endpoint string, kind routeKind, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c := s.begin(endpoint, kind == repairRoute, w, r)
		defer s.end(c)
		if kind != anyNode && s.def == nil {
			s.writeError(c.sw, http.StatusNotFound, codeNoDefaultRuleset,
				"this node serves tenant routes only; use /t/{tenant}"+endpoint)
			return
		}
		s.serveScope(c, r, s.def, kind == repairRoute, h)
	}
}

// serveScope is the one admission path, for the default scope and every
// tenant alike. It stamps the ruleset headers from one engine snapshot;
// when limited, it takes a global slot (or sheds with 503 and
// Retry-After), then the scope's own quota slot, and sets the request
// deadline; it caps the body and dispatches. sc is nil only on the
// anyNode routes of a node without a default ruleset: they read no body,
// carry no ruleset headers and hand h a nil engine.
func (s *Server) serveScope(c *reqCtx, r *http.Request, sc *scope, limited bool, h handlerFunc) {
	var eng *engine
	if sc != nil {
		eng = sc.eng.Load()
		c.sw.Header().Set(VersionHeader, strconv.FormatInt(eng.version, 10))
		c.sw.Header().Set(HashHeader, eng.hash)
		if tm := eng.tm; tm != nil {
			tm.requests.Inc()
			c.tenantQuality = tm.quality
		}
	}
	ctx := r.Context()
	if limited {
		// Global capacity first, then the scope's own quota; a tenant at
		// its quota is shed without consuming global slots, so one noisy
		// tenant cannot starve the others.
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.m.shed.Inc()
			s.m.quality.observeShed(s.m.quality.now())
			c.sw.Header().Set("Retry-After", s.retryAfter())
			s.writeError(c.sw, http.StatusServiceUnavailable, codeOverloaded,
				"server at capacity, retry shortly")
			return
		}
		if sc.sem != nil {
			select {
			case sc.sem <- struct{}{}:
				defer func() { <-sc.sem }()
			default:
				eng.tm.shed.Inc()
				eng.tm.quality.observeShed(eng.tm.quality.now())
				// The tenant quota has no queue of its own; the backoff
				// hint follows global pressure — a tenant at quota on an
				// idle server can retry in a second, one shed under global
				// saturation should wait as long as any other refused
				// request.
				c.sw.Header().Set("Retry-After", s.retryAfter())
				s.writeError(c.sw, http.StatusServiceUnavailable, codeTenantOverloaded,
					"tenant at its concurrency quota, retry shortly")
				return
			}
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	r = r.WithContext(trace.ContextWithSpan(ctx, c.root))
	if sc != nil && r.Method == http.MethodPost {
		// The limit goes on net/http's own writer, not the statusWriter:
		// only that one tells the server a limit was hit, so the 413
		// closes the connection instead of keeping it alive over unread
		// body bytes.
		r.Body = http.MaxBytesReader(c.sw.ResponseWriter, r.Body, sc.maxBody)
	}
	h(c.sw, r, eng)
}

// logRequest emits the per-request structured log line. Probe endpoints
// stay at Debug so a scraped, health-checked server does not fill its log
// with noise; error statuses escalate the level.
func (s *Server) logRequest(method, endpoint string, status int, dur time.Duration, reqID string, tr *trace.Trace) {
	level := slog.LevelInfo
	switch {
	case status >= 500:
		level = slog.LevelError
	case status >= 400:
		level = slog.LevelWarn
	case endpoint == "/healthz" || endpoint == "/metrics":
		level = slog.LevelDebug
	}
	s.cfg.Logger.Log(context.Background(), level, "request",
		"method", method,
		"endpoint", endpoint,
		"status", status,
		"duration_ms", float64(dur.Microseconds())/1000,
		"request_id", reqID,
		"trace_id", tr.ID().String(),
		"sampled", tr.Sampled(),
	)
}
