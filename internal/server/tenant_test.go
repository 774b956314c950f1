package server

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"fixrule/internal/core"
	"fixrule/internal/repair"
	"fixrule/internal/schema"
	"fixrule/internal/store"
	"fixrule/internal/trace"
)

// travelRuleset builds the Travel test ruleset with a configurable repair
// fact, so two "versions" of a tenant's rules are distinguishable by the
// bytes they produce.
func travelRuleset(fact string) *core.Ruleset {
	sch := schema.New("Travel", "name", "country", "capital", "city", "conf")
	return core.MustRuleset(
		core.MustNew("phi1", sch, map[string]string{"country": "China"},
			"capital", []string{"Shanghai", "Hongkong"}, fact),
	)
}

// inconsistentRuleset fails the consistency check: an Example 8-style
// conflict where the same evidence supports contradictory facts.
func inconsistentRuleset() *core.Ruleset {
	sch := schema.New("Travel", "name", "country", "capital", "city", "conf")
	return core.MustRuleset(
		core.MustNew("phiA", sch, map[string]string{"country": "China"},
			"capital", []string{"Shanghai"}, "Beijing"),
		core.MustNew("phiB", sch, map[string]string{"country": "China"},
			"capital", []string{"Shanghai"}, "Nanjing"),
	)
}

// mapLoader is an in-memory TenantOptions.Loader with call counting, the
// instrument the singleflight and re-admission tests read.
type mapLoader struct {
	mu    sync.Mutex
	sets  map[string]*core.Ruleset
	calls map[string]int
	delay time.Duration
}

func newMapLoader(sets map[string]*core.Ruleset) *mapLoader {
	return &mapLoader{sets: sets, calls: make(map[string]int)}
}

func (l *mapLoader) load(tenant string) (*core.Ruleset, error) {
	l.mu.Lock()
	l.calls[tenant]++
	rs := l.sets[tenant]
	delay := l.delay
	l.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if rs == nil {
		return nil, fmt.Errorf("tenant %q not provisioned: %w", tenant, fs.ErrNotExist)
	}
	return rs, nil
}

func (l *mapLoader) set(tenant string, rs *core.Ruleset) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sets[tenant] = rs
}

func (l *mapLoader) callCount(tenant string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.calls[tenant]
}

// mustTestRepairer compiles the default Travel test ruleset.
func mustTestRepairer(t *testing.T) *repair.Repairer {
	t.Helper()
	rep, err := repair.NewRepairerChecked(travelRuleset("Beijing"))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// newLocalServer wraps a Server in an httptest listener with cleanup.
func newLocalServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv
}

// newTenantServer builds a multi-tenant server over a map loader. The
// default engine serves travelRuleset("Beijing"), same as tenant "acme".
func newTenantServer(t *testing.T, cfg Config, opts TenantOptions, loader *mapLoader) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = discardLogger
	}
	opts.Loader = loader.load
	cfg.Tenants = &opts
	rep, err := repair.NewRepairerChecked(travelRuleset("Beijing"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(rep, cfg)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

const ianTuple = `{"tuples": [["Ian","China","Shanghai","Hongkong","ICDE"]]}`

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestTenantRepairRoutes(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{
		"acme":   travelRuleset("Beijing"),
		"globex": travelRuleset("Peking"),
	})
	_, srv := newTenantServer(t, Config{}, TenantOptions{}, loader)

	resp := postJSON(t, srv.URL+"/t/acme/repair", ianTuple)
	if resp.StatusCode != 200 {
		t.Fatalf("/t/acme/repair = %d %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get(TenantHeader); got != "acme" {
		t.Errorf("%s = %q, want acme", TenantHeader, got)
	}
	if got := resp.Header.Get(VersionHeader); got != "1" {
		t.Errorf("%s = %q, want 1", VersionHeader, got)
	}
	if resp.Header.Get(HashHeader) == "" {
		t.Error("tenant response missing ruleset hash header")
	}
	if body := readBody(t, resp); !strings.Contains(body, "Beijing") {
		t.Errorf("acme repair body:\n%s", body)
	}

	// The sibling tenant serves its own ruleset, not acme's.
	resp = postJSON(t, srv.URL+"/t/globex/repair", ianTuple)
	if body := readBody(t, resp); !strings.Contains(body, "Peking") {
		t.Errorf("globex repair body:\n%s", body)
	}

	// GET surfaces: rules, rules/stats, stats.
	resp, err := http.Get(srv.URL + "/t/acme/rules")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); !strings.Contains(body, "RULE phi1") {
		t.Errorf("/t/acme/rules body:\n%s", body)
	}
	resp, err = http.Get(srv.URL + "/t/acme/rules/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Rules != 1 {
		t.Errorf("/t/acme/rules/stats rules = %d, want 1", stats.Rules)
	}
	resp, err = http.Get(srv.URL + "/t/acme/stats")
	if err != nil {
		t.Fatal(err)
	}
	var ts tenantStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ts.Tenant != "acme" || !ts.Cached || ts.RulesetVersion != 1 || ts.Tuples != 1 {
		t.Errorf("/t/acme/stats = %+v", ts)
	}
}

func TestTenantIDValidation(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{"acme": travelRuleset("Beijing")})
	_, srv := newTenantServer(t, Config{}, TenantOptions{}, loader)

	valid := []string{"a", "acme", "acme-2", "a_b", "0tenant", strings.Repeat("x", 64)}
	for _, id := range valid {
		if !ValidTenantID(id) {
			t.Errorf("ValidTenantID(%q) = false, want true", id)
		}
	}
	invalid := []string{"", "ACME", "a.b", "a/b", "-lead", "_lead", "a b",
		"café", strings.Repeat("x", 65)}
	for _, id := range invalid {
		if ValidTenantID(id) {
			t.Errorf("ValidTenantID(%q) = true, want false", id)
		}
	}

	// Over the wire: malformed IDs answer 400 bad_tenant and never reach
	// the loader.
	for _, path := range []string{"/t/ACME/repair", "/t/-x/repair", "/t/" + strings.Repeat("y", 65) + "/repair"} {
		resp := postJSON(t, srv.URL+path, ianTuple)
		if code := decodeEnvelope(t, resp); resp.StatusCode != 400 || code != codeBadTenant {
			t.Errorf("%s = %d %s, want 400 bad_tenant", path, resp.StatusCode, code)
		}
	}
	if n := loader.callCount("ACME"); n != 0 {
		t.Errorf("loader called %d times for invalid tenant", n)
	}

	// Well-formed but unknown tenant: 404 unknown_tenant.
	resp := postJSON(t, srv.URL+"/t/ghost/repair", ianTuple)
	if code := decodeEnvelope(t, resp); resp.StatusCode != 404 || code != codeUnknownTenant {
		t.Errorf("/t/ghost/repair = %d %s, want 404 unknown_tenant", resp.StatusCode, code)
	}

	// Known tenant, unknown route: 404 unknown_route.
	resp = postJSON(t, srv.URL+"/t/acme/unknown", ianTuple)
	if code := decodeEnvelope(t, resp); resp.StatusCode != 404 || code != codeUnknownRoute {
		t.Errorf("/t/acme/unknown = %d %s, want 404 unknown_route", resp.StatusCode, code)
	}
}

// TestTenantByteIdentity is the core multi-tenant correctness claim: a
// request served through /t/{x}/ produces byte-identical output to the
// same request against a single-tenant server loaded with the same
// ruleset — for JSON repair, CSV streaming, columnar bodies, and explain,
// for the GET ruleset views, and on the error paths.
func TestTenantByteIdentity(t *testing.T) {
	rep, err := repair.NewRepairerChecked(travelRuleset("Beijing"))
	if err != nil {
		t.Fatal(err)
	}
	const maxBody = 4 << 10
	single := httptest.NewServer(NewWithConfig(rep, Config{Logger: discardLogger, MaxBodyBytes: maxBody}))
	defer single.Close()

	loader := newMapLoader(map[string]*core.Ruleset{"acme": travelRuleset("Beijing")})
	_, multi := newTenantServer(t, Config{MaxBodyBytes: maxBody}, TenantOptions{}, loader)

	do := func(srv, path, contentType, accept, body string) (string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv+path, strings.NewReader(body))
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
		return readBody(t, resp), resp.Header.Get("Content-Type")
	}

	jsonBody := `{"tuples": [["Ian","China","Shanghai","Hongkong","ICDE"],` +
		`["Amy","China","Hongkong","Paris","VLDB"],` +
		`["Bob","Japan","Tokyo","Tokyo","SIGMOD"]]}`
	csvBody := "name,country,capital,city,conf\n" +
		"Ian,China,Shanghai,Hongkong,ICDE\n" +
		"Amy,China,Hongkong,Paris,VLDB\n" +
		"Bob,Japan,Tokyo,Tokyo,SIGMOD\n"

	sj, _ := do(single.URL, "/repair", "application/json", "", jsonBody)
	mj, _ := do(multi.URL, "/t/acme/repair", "application/json", "", jsonBody)
	if sj != mj {
		t.Errorf("JSON repair differs:\nsingle: %s\ntenant: %s", sj, mj)
	}

	sc, _ := do(single.URL, "/repair/csv", "text/csv", "", csvBody)
	mc, _ := do(multi.URL, "/t/acme/repair/csv", "text/csv", "", csvBody)
	if sc != mc {
		t.Errorf("CSV repair differs:\nsingle: %q\ntenant: %q", sc, mc)
	}

	// Columnar out (CSV in), then columnar in, columnar out.
	sf, sct := do(single.URL, "/repair/csv", "text/csv", store.ColumnarContentType, csvBody)
	mf, mct := do(multi.URL, "/t/acme/repair/csv", "text/csv", store.ColumnarContentType, csvBody)
	if sct != store.ColumnarContentType || mct != store.ColumnarContentType {
		t.Fatalf("columnar content types = %q, %q", sct, mct)
	}
	if sf != mf {
		t.Errorf("columnar output differs (%d vs %d bytes)", len(sf), len(mf))
	}
	sr, _ := do(single.URL, "/repair/csv", store.ColumnarContentType, store.ColumnarContentType, sf)
	mr, _ := do(multi.URL, "/t/acme/repair/csv", store.ColumnarContentType, store.ColumnarContentType, mf)
	if sr != mr {
		t.Errorf("columnar round-trip differs (%d vs %d bytes)", len(sr), len(mr))
	}

	se, _ := do(single.URL, "/explain", "application/json",
		"", `{"tuple": ["Ian","China","Shanghai","Hongkong","ICDE"]}`)
	me, _ := do(multi.URL, "/t/acme/explain", "application/json",
		"", `{"tuple": ["Ian","China","Shanghai","Hongkong","ICDE"]}`)
	if se != me {
		t.Errorf("explain differs:\nsingle: %s\ntenant: %s", se, me)
	}

	// Error paths and the GET surfaces: the same status, error code,
	// content type, ruleset headers and body, once the per-request
	// correlation IDs are masked.
	masked := regexp.MustCompile(`"(request_id|trace_id)":"[^"]*"`)
	serve := func(srv, method, path, contentType, body string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, masked.ReplaceAllString(readBody(t, resp), `"$1":"-"`)
	}
	oversized := `{"tuples": [["` + strings.Repeat("x", maxBody) + `","China","Shanghai","Hongkong","ICDE"]]}`
	for _, tc := range []struct {
		name, method, path, contentType, body, code string
		status                                      int
	}{
		{"bad algorithm", "POST", "/repair", "application/json",
			`{"tuples": [["Ian","China","Shanghai","Hongkong","ICDE"]], "algorithm": "bogus"}`, codeBadAlgorithm, 400},
		{"arity mismatch", "POST", "/repair", "application/json", `{"tuples": [["Ian","China"]]}`, codeArityMismatch, 400},
		{"explain arity mismatch", "POST", "/explain", "application/json", `{"tuple": ["Ian"]}`, codeArityMismatch, 400},
		{"malformed JSON", "POST", "/repair", "application/json", `{"tuples": [`, codeBadJSON, 400},
		{"malformed CSV", "POST", "/repair/csv", "text/csv", "name,country\nIan,China\n", codeBadStream, 400},
		{"GET on a POST route", "GET", "/repair", "", "", codeMethodNotAllowed, 405},
		{"oversized body", "POST", "/repair", "application/json", oversized, codeBodyTooLarge, 413},
		{"rules", "GET", "/rules", "", "", "", 200},
		{"rules as JSON", "GET", "/rules?format=json", "", "", "", 200},
		{"rules/stats", "GET", "/rules/stats", "", "", "", 200},
	} {
		sr, sb := serve(single.URL, tc.method, tc.path, tc.contentType, tc.body)
		mr, mb := serve(multi.URL, tc.method, "/t/acme"+tc.path, tc.contentType, tc.body)
		if sr.StatusCode != tc.status || mr.StatusCode != tc.status {
			t.Errorf("%s: status single %d, tenant %d, want %d", tc.name, sr.StatusCode, mr.StatusCode, tc.status)
		}
		if tc.code != "" && !strings.Contains(sb, `"code":"`+tc.code+`"`) {
			t.Errorf("%s: single body lacks code %s: %s", tc.name, tc.code, sb)
		}
		for _, h := range []string{"Content-Type", VersionHeader, HashHeader} {
			if sv, mv := sr.Header.Get(h), mr.Header.Get(h); sv != mv {
				t.Errorf("%s: %s single %q, tenant %q", tc.name, h, sv, mv)
			}
		}
		if sb != mb {
			t.Errorf("%s: body differs:\nsingle: %s\ntenant: %s", tc.name, sb, mb)
		}
	}
}

func TestTenantReload(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{"acme": travelRuleset("Beijing")})
	_, srv := newTenantServer(t, Config{}, TenantOptions{}, loader)

	// Warm the tenant on version 1.
	resp := postJSON(t, srv.URL+"/t/acme/repair", ianTuple)
	if body := readBody(t, resp); !strings.Contains(body, "Beijing") {
		t.Fatalf("pre-reload body:\n%s", body)
	}

	// Hot deploy version 2 and verify behaviour changed.
	loader.set("acme", travelRuleset("Peking"))
	resp = postJSON(t, srv.URL+"/t/acme/reload", "")
	if resp.StatusCode != 200 {
		t.Fatalf("/t/acme/reload = %d %s", resp.StatusCode, readBody(t, resp))
	}
	if v := resp.Header.Get(VersionHeader); v != "2" {
		t.Errorf("reload version header = %q, want 2", v)
	}
	var reloaded struct {
		Tenant  string `json:"tenant"`
		Version int64  `json:"ruleset_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reloaded); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if reloaded.Tenant != "acme" || reloaded.Version != 2 {
		t.Errorf("reload response = %+v", reloaded)
	}
	resp = postJSON(t, srv.URL+"/t/acme/repair", ianTuple)
	if v := resp.Header.Get(VersionHeader); v != "2" {
		t.Errorf("post-reload version header = %q, want 2", v)
	}
	if body := readBody(t, resp); !strings.Contains(body, "Peking") {
		t.Errorf("post-reload body:\n%s", body)
	}

	// An inconsistent replacement is rejected 422 and the served engine
	// stays on version 2.
	loader.set("acme", inconsistentRuleset())
	resp = postJSON(t, srv.URL+"/t/acme/reload", "")
	if code := decodeEnvelope(t, resp); resp.StatusCode != 422 || code != codeInconsistent {
		t.Errorf("inconsistent reload = %d %s, want 422 %s", resp.StatusCode, code, codeInconsistent)
	}
	resp = postJSON(t, srv.URL+"/t/acme/repair", ianTuple)
	if body := readBody(t, resp); !strings.Contains(body, "Peking") {
		t.Errorf("failed reload changed the served engine:\n%s", body)
	}

	// Reloading an unprovisioned tenant is 404; GET on reload is 405.
	resp = postJSON(t, srv.URL+"/t/ghost/reload", "")
	if code := decodeEnvelope(t, resp); resp.StatusCode != 404 || code != codeUnknownTenant {
		t.Errorf("/t/ghost/reload = %d %s", resp.StatusCode, code)
	}
	getResp, err := http.Get(srv.URL + "/t/acme/reload")
	if err != nil {
		t.Fatal(err)
	}
	if code := decodeEnvelope(t, getResp); getResp.StatusCode != 405 || code != codeMethodNotAllowed {
		t.Errorf("GET /t/acme/reload = %d %s", getResp.StatusCode, code)
	}
}

// TestTenantQuota holds one slow streaming request inside tenant acme's
// quota of 1 and asserts the next acme request sheds with 503
// tenant_overloaded — while a sibling tenant, and the global limiter,
// keep serving.
func TestTenantQuota(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{
		"acme":   travelRuleset("Beijing"),
		"globex": travelRuleset("Peking"),
	})
	s, srv := newTenantServer(t, Config{MaxInFlight: 8}, TenantOptions{MaxInFlight: 1}, loader)

	pr, pw := io.Pipe()
	done := make(chan string, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/t/acme/repair/csv", "text/csv", pr)
		if err != nil {
			done <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- string(b)
	}()
	io.WriteString(pw, "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n")

	// Wait until the slow request holds acme's semaphore slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e, err := s.tenants.get("acme"); err == nil && len(e.sem) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow request never acquired the tenant semaphore")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp := postJSON(t, srv.URL+"/t/acme/repair", ianTuple)
	if resp.StatusCode != 503 {
		t.Fatalf("second acme request = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After")
	}
	if code := decodeEnvelope(t, resp); code != codeTenantOverloaded {
		t.Errorf("shed code = %s, want %s", code, codeTenantOverloaded)
	}

	// The sibling tenant is untouched by acme's saturation.
	resp = postJSON(t, srv.URL+"/t/globex/repair", ianTuple)
	if resp.StatusCode != 200 {
		t.Errorf("globex during acme saturation = %d, want 200", resp.StatusCode)
	}
	readBody(t, resp)

	pw.Close()
	if out := <-done; !strings.Contains(out, "Beijing") {
		t.Errorf("slow stream result: %q", out)
	}
}

// TestTenantTraceIsolation is the regression test for tenant-scoped
// observability: tenant A's traces are invisible to tenant B, both in the
// listing and — without leaking existence — in the drill-down.
func TestTenantTraceIsolation(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{
		"alpha": travelRuleset("Beijing"),
		"beta":  travelRuleset("Peking"),
	})
	tracer := trace.New(trace.Options{SampleRate: 1})
	_, srv := newTenantServer(t, Config{Tracer: tracer}, TenantOptions{}, loader)

	resp := postJSON(t, srv.URL+"/t/alpha/repair", ianTuple)
	readBody(t, resp)
	tp := resp.Header.Get("traceparent")
	if len(tp) != 55 {
		t.Fatalf("traceparent = %q", tp)
	}
	traceID := tp[3:35]

	listOf := func(tenant string) string {
		resp, err := http.Get(srv.URL + "/t/" + tenant + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("/t/%s/debug/traces = %d", tenant, resp.StatusCode)
		}
		return readBody(t, resp)
	}
	if body := listOf("alpha"); !strings.Contains(body, traceID) {
		t.Errorf("alpha's own trace missing from its listing:\n%s", body)
	}
	if body := listOf("beta"); strings.Contains(body, traceID) {
		t.Errorf("alpha's trace leaked into beta's listing:\n%s", body)
	}

	// Drill-down: owner sees it; the other tenant gets the same 404 body a
	// nonexistent trace gets, so existence is not confirmed either way.
	resp, err := http.Get(srv.URL + "/t/alpha/debug/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("owner drill-down = %d", resp.StatusCode)
	}
	if body := readBody(t, resp); !strings.Contains(body, traceID) {
		t.Errorf("owner drill-down body:\n%s", body)
	}
	otherResp, err := http.Get(srv.URL + "/t/beta/debug/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	otherBody := readBody(t, otherResp)
	missingResp, err := http.Get(srv.URL + "/t/beta/debug/traces/" + strings.Repeat("0", 32))
	if err != nil {
		t.Fatal(err)
	}
	missingBody := readBody(t, missingResp)
	if otherResp.StatusCode != 404 || missingResp.StatusCode != 404 {
		t.Fatalf("cross-tenant = %d, missing = %d, want 404 for both",
			otherResp.StatusCode, missingResp.StatusCode)
	}
	// Strip the per-request correlation IDs before comparing: the bodies
	// must otherwise be identical, or the difference leaks existence.
	scrub := func(s string) string {
		var env errorEnvelope
		if err := json.Unmarshal([]byte(s), &env); err != nil {
			t.Fatalf("404 body is not an envelope: %v", err)
		}
		env.Error.RequestID, env.Error.TraceID = "", ""
		out, _ := json.Marshal(env)
		return string(out)
	}
	if scrub(otherBody) != scrub(missingBody) {
		t.Errorf("cross-tenant 404 differs from missing-trace 404:\n%s\nvs\n%s",
			otherBody, missingBody)
	}
}

// TestTenantStatsIsolation asserts /t/{x}/stats reports only that tenant's
// counters, and the untenanted /stats and /debug/traces surfaces still
// work on a multi-tenant server.
func TestTenantStatsIsolation(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{
		"alpha": travelRuleset("Beijing"),
		"beta":  travelRuleset("Peking"),
	})
	_, srv := newTenantServer(t, Config{}, TenantOptions{}, loader)

	for i := 0; i < 3; i++ {
		readBody(t, postJSON(t, srv.URL+"/t/alpha/repair", ianTuple))
	}
	readBody(t, postJSON(t, srv.URL+"/t/beta/repair", ianTuple))

	stats := func(tenant string) tenantStatsResponse {
		resp, err := http.Get(srv.URL + "/t/" + tenant + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var ts tenantStatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&ts); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return ts
	}
	a, b := stats("alpha"), stats("beta")
	if a.Tenant != "alpha" || a.Tuples != 3 || a.TuplesRepaired != 3 {
		t.Errorf("alpha stats = %+v", a)
	}
	if b.Tenant != "beta" || b.Tuples != 1 {
		t.Errorf("beta stats counted another tenant's traffic: %+v", b)
	}

	// The per-tenant metric series carry the tenant label and separate
	// values.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readBody(t, resp)
	if !strings.Contains(metrics, `fixserve_tenant_tuples_total{tenant="alpha"} 3`) ||
		!strings.Contains(metrics, `fixserve_tenant_tuples_total{tenant="beta"} 1`) {
		t.Errorf("per-tenant tuple series missing:\n%s", metrics)
	}
	if !strings.Contains(metrics, `fixserve_tenant_cells_changed_total{tenant="alpha",attr="capital"} 3`) {
		t.Errorf("per-tenant per-attribute series missing:\n%s", metrics)
	}
}

func TestTenantBodyCap(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{"acme": travelRuleset("Beijing")})
	_, srv := newTenantServer(t, Config{}, TenantOptions{MaxBodyBytes: 256}, loader)

	big := `{"tuples": [["` + strings.Repeat("x", 1024) + `","China","Shanghai","Hongkong","ICDE"]]}`
	resp := postJSON(t, srv.URL+"/t/acme/repair", big)
	if code := decodeEnvelope(t, resp); resp.StatusCode != 413 || code != codeBodyTooLarge {
		t.Errorf("oversized tenant body = %d %s, want 413 %s", resp.StatusCode, code, codeBodyTooLarge)
	}
}

// TestTenantOnlyWorker exercises the worker topology: tenant routes serve,
// the legacy single-tenant repair surface answers 404 no_default_ruleset,
// and the probe endpoints stay alive.
func TestTenantOnlyWorker(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{"acme": travelRuleset("Beijing")})
	s, err := NewTenantOnly(Config{
		Logger:  discardLogger,
		Tenants: &TenantOptions{Loader: loader.load},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/t/acme/repair", ianTuple)
	if resp.StatusCode != 200 {
		t.Fatalf("worker /t/acme/repair = %d", resp.StatusCode)
	}
	if body := readBody(t, resp); !strings.Contains(body, "Beijing") {
		t.Errorf("worker repair body:\n%s", body)
	}

	for _, path := range []string{"/repair", "/repair/csv", "/explain", "/rules", "/rules/stats", "/reload"} {
		resp := postJSON(t, srv.URL+path, ianTuple)
		if v := resp.Header.Get(VersionHeader); v != "" {
			t.Errorf("worker %s carries %s %q", path, VersionHeader, v)
		}
		if code := decodeEnvelope(t, resp); resp.StatusCode != 404 || code != codeNoDefaultRuleset {
			t.Errorf("worker %s = %d %s, want 404 %s", path, resp.StatusCode, code, codeNoDefaultRuleset)
		}
	}
	// Outside /t/{x}/ a worker serves no ruleset, so it advertises none:
	// no ruleset headers, no fixserve_ruleset_info, no ruleset fields in
	// /stats.
	for _, path := range []string{"/healthz", "/metrics", "/stats", "/debug/traces"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Errorf("worker %s = %d, want 200", path, resp.StatusCode)
		}
		for _, h := range []string{VersionHeader, HashHeader} {
			if v := resp.Header.Get(h); v != "" {
				t.Errorf("worker %s carries %s %q", path, h, v)
			}
		}
		body := readBody(t, resp)
		switch path {
		case "/metrics":
			if strings.Contains(body, "fixserve_ruleset_info") {
				t.Errorf("worker /metrics exports fixserve_ruleset_info")
			}
		case "/stats":
			var fields map[string]json.RawMessage
			if err := json.Unmarshal([]byte(body), &fields); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"ruleset_version", "ruleset_hash", "rules", "loaded_at"} {
				if v, ok := fields[k]; ok {
					t.Errorf("worker /stats reports %s = %s", k, v)
				}
			}
		}
	}
	if rs := s.Ruleset(); rs != nil {
		t.Errorf("worker Ruleset() = %v, want nil", rs.Schema())
	}

	// NewTenantOnly without a loader is a configuration error.
	if _, err := NewTenantOnly(Config{}); err == nil {
		t.Error("NewTenantOnly without loader succeeded")
	}
}

// TestInvalidateTenants covers the SIGHUP path: every cached engine drops,
// the next request recompiles through the loader, and the version keeps
// climbing.
func TestInvalidateTenants(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{"acme": travelRuleset("Beijing")})
	s, srv := newTenantServer(t, Config{}, TenantOptions{}, loader)

	readBody(t, postJSON(t, srv.URL+"/t/acme/repair", ianTuple))
	if n := s.InvalidateTenants(); n != 1 {
		t.Errorf("InvalidateTenants = %d, want 1", n)
	}
	if s.tenants.cached("acme") {
		t.Error("acme still cached after invalidation")
	}
	loader.set("acme", travelRuleset("Peking"))
	resp := postJSON(t, srv.URL+"/t/acme/repair", ianTuple)
	if v := resp.Header.Get(VersionHeader); v != "2" {
		t.Errorf("post-invalidate version = %q, want 2", v)
	}
	if body := readBody(t, resp); !strings.Contains(body, "Peking") {
		t.Errorf("post-invalidate body:\n%s", body)
	}
	if loader.callCount("acme") != 2 {
		t.Errorf("loader calls = %d, want 2", loader.callCount("acme"))
	}

	// A single-tenant server reports 0 and false.
	rep, _ := repair.NewRepairerChecked(travelRuleset("Beijing"))
	plain := NewWithConfig(rep, Config{Logger: discardLogger})
	if plain.TenantEnabled() || plain.InvalidateTenants() != 0 {
		t.Error("single-tenant server claims tenant state")
	}
}

// TestTenantCSVStreamUsesOwnRuleset drives the streaming path through a
// tenant route with a slow body and a concurrent reload, asserting the
// stream is served wholly by the engine it snapshotted.
func TestTenantStreamSnapshotSurvivesReload(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{"acme": travelRuleset("Beijing")})
	_, srv := newTenantServer(t, Config{}, TenantOptions{}, loader)

	pr, pw := io.Pipe()
	done := make(chan string, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/t/acme/repair/csv", "text/csv", pr)
		if err != nil {
			done <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- string(b)
	}()
	io.WriteString(pw, "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n")
	time.Sleep(50 * time.Millisecond) // let the handler snapshot version 1

	loader.set("acme", travelRuleset("Peking"))
	resp := postJSON(t, srv.URL+"/t/acme/reload", "")
	if resp.StatusCode != 200 {
		t.Fatalf("mid-stream reload = %d", resp.StatusCode)
	}
	readBody(t, resp)

	// Rows sent after the reload must still repair with the snapshotted
	// version-1 engine.
	io.WriteString(pw, "Amy,China,Hongkong,Paris,VLDB\n")
	pw.Close()
	out := <-done
	if !strings.Contains(out, "Ian,China,Beijing") || !strings.Contains(out, "Amy,China,Beijing") {
		t.Errorf("in-flight stream mixed ruleset versions:\n%s", out)
	}
	if strings.Contains(out, "Peking") {
		t.Errorf("in-flight stream served by post-reload engine:\n%s", out)
	}

	// A fresh request sees version 2.
	resp = postJSON(t, srv.URL+"/t/acme/repair", ianTuple)
	if body := readBody(t, resp); !strings.Contains(body, "Peking") {
		t.Errorf("post-reload request body:\n%s", body)
	}
}
