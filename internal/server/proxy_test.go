package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"fixrule/internal/core"
	"fixrule/internal/trace"
)

// proxyFixture is a two-worker shard topology behind one proxy, each
// worker a tenants-only node over the same map loader.
type proxyFixture struct {
	proxy   *Proxy
	front   *httptest.Server
	workers []*httptest.Server
	servers []*Server
	loader  *mapLoader
}

func newProxyFixture(t *testing.T, sampleRate float64) *proxyFixture {
	t.Helper()
	loader := newMapLoader(map[string]*core.Ruleset{
		"acme":    travelRuleset("Beijing"),
		"globex":  travelRuleset("Peking"),
		"initech": travelRuleset("Ottawa"),
	})
	fx := &proxyFixture{loader: loader}
	var urls []string
	for i := 0; i < 2; i++ {
		s, err := NewTenantOnly(Config{
			Logger:  discardLogger,
			Tracer:  trace.New(trace.Options{SampleRate: sampleRate}),
			Tenants: &TenantOptions{Loader: loader.load},
		})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewServer(s)
		t.Cleanup(w.Close)
		fx.servers = append(fx.servers, s)
		fx.workers = append(fx.workers, w)
		urls = append(urls, w.URL)
	}
	p, err := NewProxy(ProxyConfig{
		Workers: urls,
		Logger:  discardLogger,
		Tracer:  trace.New(trace.Options{SampleRate: sampleRate}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	fx.proxy = p
	fx.front = httptest.NewServer(p)
	t.Cleanup(fx.front.Close)
	return fx
}

// workerFor returns the httptest worker the ring routes a tenant to.
func (fx *proxyFixture) workerFor(tenant string) *httptest.Server {
	owner := fx.proxy.Ring().Owner(tenant)
	for _, w := range fx.workers {
		if w.URL == owner {
			return w
		}
	}
	return nil
}

func TestProxyForwardsToOwner(t *testing.T) {
	fx := newProxyFixture(t, 0)

	for _, tenant := range []string{"acme", "globex", "initech"} {
		resp := postJSON(t, fx.front.URL+"/t/"+tenant+"/repair", ianTuple)
		if resp.StatusCode != 200 {
			t.Fatalf("/t/%s/repair via proxy = %d %s", tenant, resp.StatusCode, readBody(t, resp))
		}
		if got := resp.Header.Get(TenantHeader); got != tenant {
			t.Errorf("%s = %q, want %q", TenantHeader, got, tenant)
		}
		// The proxy's request ID wins; the worker's stays reachable.
		if resp.Header.Get(RequestIDHeader) == "" {
			t.Error("proxied response missing proxy request ID")
		}
		if resp.Header.Get("X-Fixserve-Upstream-Request-Id") == "" {
			t.Error("proxied response missing upstream request ID")
		}
		readBody(t, resp)
	}

	// /shard reports the topology and per-tenant ownership that the
	// forwards above actually used.
	resp, err := http.Get(fx.front.URL + "/shard?tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	var shard shardResponse
	if err := json.NewDecoder(resp.Body).Decode(&shard); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if shard.Mode != "proxy" || len(shard.Workers) != 2 {
		t.Errorf("/shard = %+v", shard)
	}
	if shard.Owner != fx.proxy.Ring().Owner("acme") {
		t.Errorf("/shard owner = %q, ring says %q", shard.Owner, fx.proxy.Ring().Owner("acme"))
	}

	// Non-tenant routes are refused: a shard router owns no rulesets.
	resp = postJSON(t, fx.front.URL+"/repair", ianTuple)
	if code := decodeEnvelope(t, resp); resp.StatusCode != 404 || code != codeNotProxied {
		t.Errorf("/repair via proxy = %d %s, want 404 %s", resp.StatusCode, code, codeNotProxied)
	}
	// Malformed tenants are rejected at the edge.
	resp = postJSON(t, fx.front.URL+"/t/BAD!/repair", ianTuple)
	if code := decodeEnvelope(t, resp); resp.StatusCode != 400 || code != codeBadTenant {
		t.Errorf("bad tenant via proxy = %d %s", resp.StatusCode, code)
	}
}

// TestProxyByteIdentity: a request through the proxy returns exactly the
// bytes the owning worker returns directly — JSON, streamed CSV, and
// columnar bodies.
func TestProxyByteIdentity(t *testing.T) {
	fx := newProxyFixture(t, 0)
	worker := fx.workerFor("acme")

	do := func(base, path, contentType, accept, body string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("POST %s = %d %s", path, resp.StatusCode, readBody(t, resp))
		}
		return readBody(t, resp)
	}

	csvBody := "name,country,capital,city,conf\n" +
		"Ian,China,Shanghai,Hongkong,ICDE\n" +
		"Amy,China,Hongkong,Paris,VLDB\n"

	direct := do(worker.URL, "/t/acme/repair", "application/json", "", ianTuple)
	proxied := do(fx.front.URL, "/t/acme/repair", "application/json", "", ianTuple)
	if direct != proxied {
		t.Errorf("JSON via proxy differs:\ndirect: %s\nproxied: %s", direct, proxied)
	}

	direct = do(worker.URL, "/t/acme/repair/csv", "text/csv", "", csvBody)
	proxied = do(fx.front.URL, "/t/acme/repair/csv", "text/csv", "", csvBody)
	if direct != proxied {
		t.Errorf("CSV via proxy differs:\ndirect: %q\nproxied: %q", direct, proxied)
	}

	fdirect := do(worker.URL, "/t/acme/repair/csv", "text/csv", "application/x-fcol", csvBody)
	fproxied := do(fx.front.URL, "/t/acme/repair/csv", "text/csv", "application/x-fcol", csvBody)
	if fdirect != fproxied {
		t.Errorf("columnar via proxy differs (%d vs %d bytes)", len(fdirect), len(fproxied))
	}
}

// gatedReader hands out body[:gate], then blocks until open is closed (or
// a fallback timeout passes, so a proxy that never answers cannot hang
// the test) before trickling out the rest in small, spaced pieces.
type gatedReader struct {
	body     []byte
	off      int
	gate     int
	open     <-chan struct{}
	fallback time.Duration
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.off == len(g.body) {
		return 0, io.EOF
	}
	end := g.gate
	switch {
	case g.off == g.gate:
		select {
		case <-g.open:
		case <-time.After(g.fallback):
		}
		fallthrough
	case g.off > g.gate:
		time.Sleep(time.Millisecond)
		end = min(g.off+8<<10, len(g.body))
	}
	n := copy(p, g.body[g.off:end])
	g.off += n
	return n, nil
}

// TestProxyStreamsWhileUploading: a proxied /repair/csv stream whose
// response starts while the client is still uploading arrives whole. The
// client sends ~300 KiB of a ~400 KiB body and waits for the response
// headers before sending the rest, so the proxy's first flush happens with
// less than 256 KiB of the body unread: unless the proxy's inbound
// request is full duplex, net/http drains that remainder itself, racing
// the transport that forwards it, and the stream is cut.
func TestProxyStreamsWhileUploading(t *testing.T) {
	fx := newProxyFixture(t, 0)
	var b strings.Builder
	b.WriteString("name,country,capital,city,conf\n")
	for i := 0; b.Len() < 400<<10; i++ {
		fmt.Fprintf(&b, "Ian%d,China,Shanghai,Hongkong,ICDE\n", i)
	}
	body := []byte(b.String())

	resp, err := http.Post(fx.workerFor("acme").URL+"/t/acme/repair/csv", "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("direct stream = %d", resp.StatusCode)
	}
	direct := readBody(t, resp)

	open := make(chan struct{})
	req, err := http.NewRequest(http.MethodPost, fx.front.URL+"/t/acme/repair/csv",
		&gatedReader{body: body, gate: 300 << 10, open: open, fallback: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(body))
	req.Header.Set("Content-Type", "text/csv")
	resp, err = http.DefaultClient.Do(req)
	close(open)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("proxied stream = %d", resp.StatusCode)
	}
	proxied := readBody(t, resp)
	if proxied != direct {
		n := 0
		for n < len(proxied) && n < len(direct) && proxied[n] == direct[n] {
			n++
		}
		t.Fatalf("proxied stream: %d bytes differ from the %d direct bytes (first at %d); tail %q",
			len(proxied), len(direct), n, proxied[max(0, len(proxied)-200):])
	}
}

// TestProxyTracePropagation: the worker joins the proxy's trace — one
// trace ID across both hops — and the proxied response carries the
// proxy's traceparent.
func TestProxyTracePropagation(t *testing.T) {
	fx := newProxyFixture(t, 1)

	resp := postJSON(t, fx.front.URL+"/t/acme/repair", ianTuple)
	readBody(t, resp)
	tp := resp.Header.Get("traceparent")
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") {
		t.Fatalf("proxied traceparent = %q", tp)
	}
	traceID := tp[3:35]

	// The owning worker recorded the same trace ID (visible through its
	// own tenant-scoped trace listing).
	worker := fx.workerFor("acme")
	wresp, err := http.Get(worker.URL + "/t/acme/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	listing := readBody(t, wresp)
	if !strings.Contains(listing, traceID) {
		t.Errorf("worker trace listing has no trace %s:\n%s", traceID, listing)
	}
}

// TestProxyPerTenantReload: a reload through the proxy hot-deploys on the
// owning worker, and subsequent proxied repairs see the new ruleset.
func TestProxyPerTenantReload(t *testing.T) {
	fx := newProxyFixture(t, 0)

	resp := postJSON(t, fx.front.URL+"/t/acme/repair", ianTuple)
	if body := readBody(t, resp); !strings.Contains(body, "Beijing") {
		t.Fatalf("pre-reload body:\n%s", body)
	}
	fx.loader.set("acme", travelRuleset("Peking"))
	resp = postJSON(t, fx.front.URL+"/t/acme/reload", "")
	if resp.StatusCode != 200 {
		t.Fatalf("reload via proxy = %d %s", resp.StatusCode, readBody(t, resp))
	}
	if v := resp.Header.Get(VersionHeader); v != "2" {
		t.Errorf("reload version header via proxy = %q, want 2", v)
	}
	readBody(t, resp)
	resp = postJSON(t, fx.front.URL+"/t/acme/repair", ianTuple)
	if body := readBody(t, resp); !strings.Contains(body, "Peking") {
		t.Errorf("post-reload proxied repair:\n%s", body)
	}
}

// TestProxyDeadWorker: a tenant owned by an unreachable worker answers
// 502 upstream_unavailable with full correlation IDs, while tenants owned
// by the live worker keep serving.
func TestProxyDeadWorker(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{})
	live, err := NewTenantOnly(Config{
		Logger:  discardLogger,
		Tenants: &TenantOptions{Loader: loader.load},
	})
	if err != nil {
		t.Fatal(err)
	}
	liveSrv := httptest.NewServer(live)
	defer liveSrv.Close()

	// A listener that is closed immediately: connection refused, port
	// very unlikely to be reused during the test.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + dead.Addr().String()
	dead.Close()

	p, err := NewProxy(ProxyConfig{
		Workers: []string{liveSrv.URL, deadURL},
		Logger:  discardLogger,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	// Find tenants on each side of the ring; provision the live one.
	var deadTenant, liveTenant string
	for i := 0; deadTenant == "" || liveTenant == ""; i++ {
		name := ringKeys(i + 1)[i]
		if p.Ring().Owner(name) == deadURL {
			if deadTenant == "" {
				deadTenant = name
			}
		} else if liveTenant == "" {
			liveTenant = name
		}
	}
	loader.set(liveTenant, travelRuleset("Beijing"))

	resp := postJSON(t, front.URL+"/t/"+deadTenant+"/repair", ianTuple)
	if resp.StatusCode != 502 {
		t.Fatalf("dead-worker tenant = %d, want 502", resp.StatusCode)
	}
	if resp.Header.Get(RequestIDHeader) == "" || resp.Header.Get("traceparent") == "" {
		t.Error("502 missing correlation headers")
	}
	var env errorEnvelope
	body := readBody(t, resp)
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("502 body is not an envelope: %v\n%s", err, body)
	}
	if env.Error.Code != codeUpstreamDown || env.Error.RequestID == "" || env.Error.TraceID == "" {
		t.Errorf("502 envelope = %+v", env.Error)
	}

	resp = postJSON(t, front.URL+"/t/"+liveTenant+"/repair", ianTuple)
	if resp.StatusCode != 200 {
		t.Errorf("live tenant alongside dead worker = %d", resp.StatusCode)
	}
	readBody(t, resp)
}

// TestProxyBodyTooLarge: an oversized POST body answers 413
// body_too_large — both when the length is declared up front and when a
// chunked upload trips the MaxBytesReader mid-forward — and neither case
// blames the (healthy) worker's upstream-error counter.
func TestProxyBodyTooLarge(t *testing.T) {
	fx := newProxyFixture(t, 0)
	p, err := NewProxy(ProxyConfig{
		Workers:      []string{fx.workers[0].URL, fx.workers[1].URL},
		MaxBodyBytes: 1 << 10,
		Logger:       discardLogger,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	upstreamErrors := func() int64 {
		var n int64
		for _, c := range p.upErrors {
			n += c.Load()
		}
		return n
	}

	big := strings.Repeat("x", 2<<10)
	for _, declared := range []bool{true, false} {
		var body io.Reader = strings.NewReader(big)
		if !declared {
			// An io.Reader that is not a *strings.Reader forces chunked
			// encoding: ContentLength stays -1 and the limit can only
			// trip while the transport reads the body mid-forward.
			body = io.MultiReader(strings.NewReader(big))
		}
		req, err := http.NewRequest(http.MethodPost, front.URL+"/t/acme/repair", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("declared=%v: %v", declared, err)
		}
		if code := decodeEnvelope(t, resp); resp.StatusCode != 413 || code != codeBodyTooLarge {
			t.Errorf("declared=%v oversized body = %d %s, want 413 %s",
				declared, resp.StatusCode, code, codeBodyTooLarge)
		}
		if n := upstreamErrors(); n != 0 {
			t.Errorf("declared=%v oversized body incremented upstream errors to %d", declared, n)
		}
	}

	// A body within the limit still forwards.
	resp := postJSON(t, front.URL+"/t/acme/repair", ianTuple)
	if resp.StatusCode != 200 {
		t.Errorf("in-limit body via limited proxy = %d %s", resp.StatusCode, readBody(t, resp))
	} else {
		readBody(t, resp)
	}
}

// TestProxyForwardHeaders: headers the client's Connection header
// nominates as hop-by-hop are not forwarded (RFC 9110 §7.6.1), and the
// proxy stamps X-Forwarded-For / X-Forwarded-Host so workers can tell
// proxied from direct traffic.
func TestProxyForwardHeaders(t *testing.T) {
	// Only the forwarded tenant request is captured: the proxy's prober
	// also hits this worker (/healthz, /quality) concurrently.
	var mu sync.Mutex
	var got http.Header
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/t/") {
			mu.Lock()
			got = r.Header.Clone()
			got.Set("Host", r.Host)
			mu.Unlock()
		}
		io.WriteString(w, "ok")
	}))
	defer worker.Close()

	p, err := NewProxy(ProxyConfig{Workers: []string{worker.URL}, Logger: discardLogger})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	req, err := http.NewRequest(http.MethodGet, front.URL+"/t/acme/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Connection", "close, X-Hop-Secret")
	req.Header.Set("X-Hop-Secret", "do-not-forward")
	req.Header.Set("X-Forwarded-For", "203.0.113.9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)

	mu.Lock()
	defer mu.Unlock()
	if v := got.Get("X-Hop-Secret"); v != "" {
		t.Errorf("Connection-nominated header forwarded: X-Hop-Secret=%q", v)
	}
	xff := got.Get("X-Forwarded-For")
	if !strings.HasPrefix(xff, "203.0.113.9, ") || !strings.HasSuffix(xff, "127.0.0.1") {
		t.Errorf("X-Forwarded-For = %q, want client chain + 127.0.0.1", xff)
	}
	if v := got.Get("X-Forwarded-Host"); v == "" {
		t.Error("X-Forwarded-Host not set on forwarded request")
	}
}

// errWriter is a ResponseWriter whose Write always fails — the shape of a
// client that hung up mid-download.
type errWriter struct{ header http.Header }

func (w *errWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}
func (w *errWriter) WriteHeader(int) {}
func (w *errWriter) Write([]byte) (int, error) {
	return 0, errors.New("client gone")
}

// TestFlushCopyAttributesSides: flushCopy reports upstream read failures
// and client write failures separately, so a client hangup is never
// counted or logged as a worker fault.
func TestFlushCopyAttributesSides(t *testing.T) {
	upstreamCut := io.MultiReader(strings.NewReader("partial"),
		iotest.ErrReader(errors.New("worker died")))
	readErr, writeErr := flushCopy(
		&statusWriter{ResponseWriter: httptest.NewRecorder()}, upstreamCut)
	if readErr == nil || writeErr != nil {
		t.Errorf("upstream cut: readErr=%v writeErr=%v, want read-side only", readErr, writeErr)
	}

	readErr, writeErr = flushCopy(
		&statusWriter{ResponseWriter: &errWriter{}}, strings.NewReader("payload"))
	if writeErr == nil || readErr != nil {
		t.Errorf("client hangup: readErr=%v writeErr=%v, want write-side only", readErr, writeErr)
	}

	readErr, writeErr = flushCopy(
		&statusWriter{ResponseWriter: httptest.NewRecorder()}, strings.NewReader("clean"))
	if readErr != nil || writeErr != nil {
		t.Errorf("clean stream: readErr=%v writeErr=%v", readErr, writeErr)
	}
}

// TestProxyMidStreamWorkerDeath injects the worst fault: the worker dies
// after the status line and part of the body are already on the wire. The
// client must receive the partial stream followed by a trailing JSON
// error envelope carrying the request and trace IDs.
func TestProxyMidStreamWorkerDeath(t *testing.T) {
	// A hand-rolled worker that sends headers + partial CSV, then cuts
	// the connection without a terminating chunk.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				c.SetReadDeadline(time.Now().Add(2 * time.Second))
				c.Read(buf) // consume the request head; body may follow
				io.WriteString(c, "HTTP/1.1 200 OK\r\n"+
					"Content-Type: text/csv\r\n"+
					"Transfer-Encoding: chunked\r\n\r\n"+
					"2f\r\nname,country,capital,city,conf\nIan,China,Bei\r\n")
				// Connection dies mid-chunk, no terminal 0-length chunk.
			}(conn)
		}
	}()

	p, err := NewProxy(ProxyConfig{
		Workers: []string{"http://" + ln.Addr().String()},
		Logger:  discardLogger,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	resp := postJSON(t, front.URL+"/t/acme/repair/csv", "name,country,capital,city,conf\n")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200 (headers were already forwarded)", resp.StatusCode)
	}
	reqID := resp.Header.Get(RequestIDHeader)
	body := readBody(t, resp)
	if !strings.Contains(body, "name,country,capital") {
		t.Errorf("partial stream not forwarded:\n%s", body)
	}
	// The trailing envelope after the cut names the failure and carries
	// the correlation IDs.
	idx := strings.Index(body, `{"error"`)
	if idx < 0 {
		t.Fatalf("no trailing error envelope after mid-stream cut:\n%s", body)
	}
	var env errorEnvelope
	if err := json.Unmarshal([]byte(body[idx:]), &env); err != nil {
		t.Fatalf("trailing envelope unparsable: %v\n%s", err, body[idx:])
	}
	if env.Error.Code != codeUpstreamCut {
		t.Errorf("trailing code = %q, want %q", env.Error.Code, codeUpstreamCut)
	}
	if env.Error.RequestID != reqID || env.Error.TraceID == "" {
		t.Errorf("trailing envelope IDs = %+v, header reqID %q", env.Error, reqID)
	}
}
