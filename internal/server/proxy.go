package server

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/textproto"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fixrule/internal/obs"
	"fixrule/internal/trace"
)

// Proxy is the shard-router face of fixserve: it owns a consistent-hash
// ring over worker base URLs and forwards every /t/{tenant}/ request —
// JSON, CSV streams and columnar x-fcol bodies alike — to the worker that
// owns the tenant, streaming both directions without buffering. The
// proxy's W3C trace context propagates on the forwarded request, so a
// repair traced at the proxy and at the worker shares one trace ID, and
// the worker's version/hash/tenant response headers pass through to the
// client untouched.
//
// Proxy-local endpoints:
//
//	GET /healthz   proxy liveness; ?verbose=1 adds worker health (prober.go)
//	GET /metrics   the proxy's own Prometheus exposition
//	GET /shard     ring topology; ?tenant=x reports the owning worker
//	GET /fleet     ring topology merged with per-worker health + quality
//	GET /quality   fleet-wide aggregated quality report
//
// Workers are actively probed (periodic /healthz + /quality scrapes, see
// prober.go); call Close when discarding a proxy to stop the probe loop.
// Everything else that is not /t/{tenant}/... answers 404 not_proxied:
// a shard router has no rulesets of its own.
type Proxy struct {
	cfg    ProxyConfig
	mux    *http.ServeMux
	ring   *Ring
	client *http.Client
	reg    *obs.Registry
	tracer *trace.Tracer
	prober *prober

	reqPrefix  string
	reqCounter atomic.Uint64

	requests  map[string]*obs.Counter // per worker
	upErrors  map[string]*obs.Counter // per worker
	inflight  *obs.Gauge
	latency   *obs.Histogram
	errors4xx *obs.Counter
	errors5xx *obs.Counter
}

// ProxyConfig tunes the shard router. Workers is required; everything else
// has production-safe defaults.
type ProxyConfig struct {
	// Workers are the worker base URLs (e.g. "http://10.0.0.7:8080"), the
	// nodes of the consistent-hash ring.
	Workers []string
	// Replicas is the virtual-node count per worker; <= 0 selects 128.
	Replicas int
	// MaxBodyBytes caps forwarded request bodies; <= 0 selects 32 MiB.
	MaxBodyBytes int64
	// ForwardTimeout bounds a forwarded request: end to end for
	// non-streaming endpoints, connect + response headers for streaming
	// ones (/t/{tenant}/repair/csv), whose body may legitimately flow for
	// longer than any fixed bound — a healthy stream is never cut mid-read.
	// <= 0 selects 120s (generous: workers enforce their own repair
	// deadline).
	ForwardTimeout time.Duration
	// ProbeInterval sets the worker health-probe period; <= 0 selects 5s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one worker probe (the /healthz check and the
	// follow-up /quality scrape share it); <= 0 selects 2s, clamped to the
	// probe interval so rounds never overlap.
	ProbeTimeout time.Duration
	// Transport overrides the outbound round tripper; nil uses
	// http.DefaultTransport (connection pooling included).
	Transport http.RoundTripper
	// Registry receives the proxy metrics; nil allocates a private one.
	Registry *obs.Registry
	// Logger receives structured request logs; nil selects stderr text.
	Logger *slog.Logger
	// Tracer records proxy-side request traces; nil builds a private
	// tracer with sampling disabled.
	Tracer *trace.Tracer
}

func (c ProxyConfig) withDefaults() ProxyConfig {
	if c.Replicas <= 0 {
		c.Replicas = ringReplicas
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 120 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 5 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ProbeTimeout > c.ProbeInterval {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
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

// NewProxy builds the shard router over the configured workers.
func NewProxy(cfg ProxyConfig) (*Proxy, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Workers, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:  cfg,
		mux:  http.NewServeMux(),
		ring: ring,
		// No Client.Timeout: it would bound the entire body read and cut
		// legitimate long-running streams mid-flight. handleForward applies
		// ForwardTimeout per request instead — end to end for non-streaming
		// endpoints, connect + headers only for streams.
		client:    &http.Client{Transport: cfg.Transport},
		reg:       cfg.Registry,
		tracer:    cfg.Tracer,
		reqPrefix: newRequestPrefix(),
		requests:  make(map[string]*obs.Counter, len(cfg.Workers)),
		upErrors:  make(map[string]*obs.Counter, len(cfg.Workers)),
	}
	for _, wkr := range cfg.Workers {
		p.requests[wkr] = p.reg.Counter("fixserve_proxy_requests_total",
			"Requests forwarded, by worker.", obs.Labels("worker", wkr))
		p.upErrors[wkr] = p.reg.Counter("fixserve_proxy_upstream_errors_total",
			"Forwards that failed before or during the upstream response, by worker.",
			obs.Labels("worker", wkr))
	}
	p.inflight = p.reg.Gauge("fixserve_proxy_inflight_requests",
		"Requests currently being forwarded.", "")
	p.latency = p.reg.Histogram("fixserve_proxy_request_duration_seconds",
		"End-to-end forwarded request latency.", "", obs.DefaultLatencyBuckets())
	p.errors4xx = p.reg.Counter("fixserve_proxy_errors_total",
		"Error responses returned to clients, by status class.", obs.Labels("class", "4xx"))
	p.errors5xx = p.reg.Counter("fixserve_proxy_errors_total",
		"Error responses returned to clients, by status class.", obs.Labels("class", "5xx"))
	p.reg.Gauge("fixserve_shard_nodes",
		"Workers in the consistent-hash ring.", "").Set(int64(len(cfg.Workers)))

	p.mux.HandleFunc("/healthz", p.handleHealth)
	p.mux.HandleFunc("/metrics", p.handleMetrics)
	p.mux.HandleFunc("/shard", p.handleShard)
	p.mux.HandleFunc("/fleet", p.handleFleet)
	p.mux.HandleFunc("/quality", p.handleProxyQuality)
	p.mux.HandleFunc("/t/", p.handleForward)
	p.mux.HandleFunc("/", p.handleNotProxied)
	obs.RegisterRuntime(p.reg, time.Now())
	p.prober = newProber(cfg, p.reg)
	p.prober.start()
	return p, nil
}

// Close stops the worker probe loop. Safe to call more than once; the
// proxy keeps serving (with stale health data) if the caller forgets, but
// tests and clean shutdowns should close.
func (p *Proxy) Close() { p.prober.close() }

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.mux.ServeHTTP(w, r) }

// Registry returns the proxy's metrics registry.
func (p *Proxy) Registry() *obs.Registry { return p.reg }

// Ring returns the proxy's shard ring.
func (p *Proxy) Ring() *Ring { return p.ring }

func (p *Proxy) nextRequestID() string {
	return p.reqPrefix + "-" + pad6(p.reqCounter.Add(1))
}

func pad6(n uint64) string {
	s := strconv.FormatUint(n, 10)
	if len(s) < 6 {
		s = strings.Repeat("0", 6-len(s)) + s
	}
	return s
}

func (p *Proxy) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("verbose") != "" {
		p.handleHealthVerbose(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.reg.WritePrometheus(w)
}

// shardResponse is the /shard payload: the ring topology, and when
// ?tenant= names a well-formed tenant, its owning worker.
type shardResponse struct {
	Mode     string   `json:"mode"`
	Workers  []string `json:"workers"`
	Replicas int      `json:"replicas"`
	Tenant   string   `json:"tenant,omitempty"`
	Owner    string   `json:"owner,omitempty"`
}

func (p *Proxy) handleShard(w http.ResponseWriter, r *http.Request) {
	resp := shardResponse{Mode: "proxy", Workers: p.ring.Nodes(), Replicas: p.ring.Replicas()}
	if t := r.URL.Query().Get("tenant"); t != "" {
		if !ValidTenantID(t) {
			writeErrorEnvelope(w, http.StatusBadRequest, codeBadTenant,
				"tenant id must be 1-64 chars of [a-z0-9_-], starting with a letter or digit")
			return
		}
		resp.Tenant = t
		resp.Owner = p.ring.Owner(t)
	}
	writeJSON(w, resp)
}

func (p *Proxy) handleNotProxied(w http.ResponseWriter, r *http.Request) {
	writeErrorEnvelope(w, http.StatusNotFound, codeNotProxied,
		"this node is a shard router; only /t/{tenant}/... routes are served")
}

// hopHeaders are the hop-by-hop headers stripped in both directions
// (RFC 9110 §7.6.1).
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// handleForward proxies one tenant request to its owning worker.
func (p *Proxy) handleForward(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	p.inflight.Add(1)
	defer p.inflight.Add(-1)

	reqID := p.nextRequestID()
	parent, _ := trace.ParseTraceparent(r.Header.Get("traceparent"))
	tr := p.tracer.StartRequest("/t/{tenant} proxy", parent)
	root := tr.Root()
	sw := &statusWriter{ResponseWriter: w}
	sw.Header().Set(RequestIDHeader, reqID)
	sw.Header().Set("traceparent", root.Context().Traceparent())

	tenantID, _ := splitTenantPath(r.URL.Path)
	root.SetAttr(
		trace.String("request_id", reqID),
		trace.String("tenant", tenantID),
		trace.String("endpoint", "/t/{tenant} proxy"),
	)
	defer func() {
		st := sw.status()
		root.SetAttr(trace.Int("status", st))
		if st >= 500 {
			root.SetError(http.StatusText(st))
		}
		tr.Finish()
		p.latency.Observe(time.Since(start).Seconds())
		switch {
		case st >= 500:
			p.errors5xx.Inc()
		case st >= 400:
			p.errors4xx.Inc()
		}
		p.cfg.Logger.Log(context.Background(), logLevelFor(st), "proxy request",
			"method", r.Method, "path", r.URL.Path, "tenant", tenantID,
			"status", st, "duration_ms", float64(time.Since(start).Microseconds())/1000,
			"request_id", reqID, "trace_id", tr.ID().String())
	}()

	// Reject malformed tenants at the edge: no worker connection is spent
	// on a request that every worker would refuse.
	if !ValidTenantID(tenantID) {
		writeErrorEnvelope(sw, http.StatusBadRequest, codeBadTenant,
			"tenant id must be 1-64 chars of [a-z0-9_-], starting with a letter or digit")
		return
	}
	worker := p.ring.Owner(tenantID)
	root.SetAttr(trace.String("worker", worker))
	if c := p.requests[worker]; c != nil {
		c.Inc()
	}

	var body io.Reader = r.Body
	if r.Method == http.MethodPost {
		// Declared-length overruns are rejected before a worker connection
		// is spent; chunked uploads are caught by the MaxBytesReader below
		// when the transport reads the body mid-forward.
		if r.ContentLength > p.cfg.MaxBodyBytes {
			writeErrorEnvelope(sw, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				"request body exceeds the proxy limit of "+
					strconv.FormatInt(p.cfg.MaxBodyBytes, 10)+" bytes")
			return
		}
		body = http.MaxBytesReader(sw, r.Body, p.cfg.MaxBodyBytes)
	}
	// Bound the forward without bounding stream bodies. Non-streaming
	// endpoints get an end-to-end deadline; the CSV stream endpoint gets a
	// timer covering only connect + response headers, stopped the moment
	// the worker answers — after that, a slow-but-flowing repair stream may
	// run as long as it needs, and only a genuine peer failure (surfacing
	// as a read or write error in flushCopy) ends it early.
	_, rest := splitTenantPath(r.URL.Path)
	streaming := rest == "/repair/csv"
	fctx := r.Context()
	var headerTimedOut atomic.Bool
	var headerTimer *time.Timer
	if streaming {
		var cancel context.CancelFunc
		fctx, cancel = context.WithCancel(fctx)
		defer cancel()
		headerTimer = time.AfterFunc(p.cfg.ForwardTimeout, func() {
			headerTimedOut.Store(true)
			cancel()
		})
		defer headerTimer.Stop()
	} else {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(fctx, p.cfg.ForwardTimeout)
		defer cancel()
	}

	out, err := http.NewRequestWithContext(fctx, r.Method, worker+r.URL.RequestURI(), body)
	if err != nil {
		// Only a malformed worker URL reaches here; the detail names
		// server-side configuration, so log it and answer with the code.
		p.cfg.Logger.Error("proxy request build failed", "request_id", reqID, "err", err)
		writeErrorEnvelope(sw, http.StatusInternalServerError, codeInternal,
			"building the upstream request failed; see proxy log")
		return
	}
	copyHeaders(out.Header, r.Header)
	// Forwarding metadata: workers can tell proxied from direct traffic
	// and recover the client address and original Host.
	if ip, _, splitErr := net.SplitHostPort(r.RemoteAddr); splitErr == nil {
		if prior := out.Header.Get("X-Forwarded-For"); prior != "" {
			out.Header.Set("X-Forwarded-For", prior+", "+ip)
		} else {
			out.Header.Set("X-Forwarded-For", ip)
		}
	}
	out.Header.Set("X-Forwarded-Host", r.Host)
	// The proxy's own span context propagates downstream, so the worker
	// joins this trace; the worker's sampling decision follows the
	// proxy's, keeping one consistent record per request.
	out.Header.Set("traceparent", root.Context().Traceparent())
	out.ContentLength = r.ContentLength

	// The transport reads the client's body while the worker's response
	// is already streaming back through sw. Without full duplex, the
	// first flush of that response makes net/http drain whatever of the
	// body is still unread (when less than 256 KiB), racing the transport
	// for the same bytes: the worker then sees a cut body and the stream
	// ends in upstream_interrupted.
	_ = http.NewResponseController(sw).EnableFullDuplex()

	resp, err := p.client.Do(out)
	if headerTimer != nil {
		// Headers are in (or the attempt failed): the stream body is no
		// longer under the clock.
		headerTimer.Stop()
	}
	if err != nil {
		// A body-limit overrun surfaces here as the transport's read error
		// on the MaxBytesReader; that is the client's fault, not the
		// worker's, so it maps to 413 without touching the upstream-error
		// counter.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErrorEnvelope(sw, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				"request body exceeds the proxy limit of "+
					strconv.FormatInt(p.cfg.MaxBodyBytes, 10)+" bytes")
			return
		}
		if c := p.upErrors[worker]; c != nil {
			c.Inc()
		}
		// A timeout is the worker being slow, not down — distinct status and
		// code so dashboards and retry policies can tell the two apart.
		if headerTimedOut.Load() || errors.Is(err, context.DeadlineExceeded) {
			p.cfg.Logger.Error("proxy upstream timed out",
				"worker", worker, "tenant", tenantID, "request_id", reqID,
				"timeout", p.cfg.ForwardTimeout, "err", err)
			writeErrorEnvelope(sw, http.StatusGatewayTimeout, codeUpstreamTimeout,
				"the worker owning this tenant did not answer within the forward timeout")
			return
		}
		p.cfg.Logger.Error("proxy upstream unavailable",
			"worker", worker, "tenant", tenantID, "request_id", reqID, "err", err)
		writeErrorEnvelope(sw, http.StatusBadGateway, codeUpstreamDown,
			"the worker owning this tenant is unreachable, retry shortly")
		return
	}
	defer resp.Body.Close()

	copyHeaders(sw.Header(), resp.Header)
	// The proxy's correlation headers win over the worker's: the client
	// talks to the proxy, and the proxy log is indexed by its own IDs. The
	// worker's request ID remains reachable for operators as the upstream
	// header.
	if up := resp.Header.Get(RequestIDHeader); up != "" {
		sw.Header().Set("X-Fixserve-Upstream-Request-Id", up)
	}
	sw.Header().Set(RequestIDHeader, reqID)
	sw.Header().Set("traceparent", root.Context().Traceparent())
	sw.WriteHeader(resp.StatusCode)

	readErr, writeErr := flushCopy(sw, resp.Body)
	switch {
	case readErr != nil:
		// The worker died mid-stream with the status line long gone; the
		// envelope lands as trailing body content — exactly the contract
		// the single-tenant stream error path already has — carrying the
		// request and trace IDs the operator needs.
		if c := p.upErrors[worker]; c != nil {
			c.Inc()
		}
		root.SetError("upstream interrupted")
		p.cfg.Logger.Error("proxy upstream interrupted mid-stream",
			"worker", worker, "tenant", tenantID, "request_id", reqID, "err", readErr)
		writeErrorEnvelope(sw, http.StatusBadGateway, codeUpstreamCut,
			"the worker connection was interrupted mid-response")
	case writeErr != nil:
		// The client hung up mid-download. The worker is healthy, so its
		// upstream-error counter stays untouched, and there is no point
		// writing an envelope to a dead connection.
		p.cfg.Logger.Warn("proxy client disconnected mid-stream",
			"worker", worker, "tenant", tenantID, "request_id", reqID, "err", writeErr)
	}
}

func logLevelFor(status int) slog.Level {
	switch {
	case status >= 500:
		return slog.LevelError
	case status >= 400:
		return slog.LevelWarn
	}
	return slog.LevelInfo
}

// copyHeaders copies all non-hop-by-hop headers from src into dst,
// including any header the src Connection header nominates as hop-by-hop
// (RFC 9110 §7.6.1 requires dropping those alongside the fixed list).
func copyHeaders(dst, src http.Header) {
	nominated := connectionNominated(src)
	for k, vv := range src {
		if isHopHeader(k) || nominated[textproto.CanonicalMIMEHeaderKey(k)] {
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// connectionNominated parses the Connection header's comma-separated
// option list into the set of canonical header names it declares
// hop-by-hop. Returns nil when Connection is absent (the common case).
func connectionNominated(h http.Header) map[string]bool {
	var set map[string]bool
	for _, v := range h.Values("Connection") {
		for _, opt := range strings.Split(v, ",") {
			opt = strings.TrimSpace(opt)
			if opt == "" {
				continue
			}
			if set == nil {
				set = make(map[string]bool)
			}
			set[textproto.CanonicalMIMEHeaderKey(opt)] = true
		}
	}
	return set
}

func isHopHeader(k string) bool {
	for _, h := range hopHeaders {
		if strings.EqualFold(k, h) {
			return true
		}
	}
	return false
}

// flushCopy streams src to dst, flushing after every chunk so worker
// streaming (CSV and columnar frames) passes through the proxy without
// buffering a full response. Read-side (upstream) and write-side (client)
// failures are reported separately so the caller can attribute the
// interruption to the correct peer.
func flushCopy(dst *statusWriter, src io.Reader) (readErr, writeErr error) {
	buf := make([]byte, 32<<10)
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return nil, werr
			}
			dst.Flush()
		}
		if rerr == io.EOF {
			return nil, nil
		}
		if rerr != nil {
			return rerr, nil
		}
	}
}
