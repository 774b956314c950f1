package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fixrule/internal/core"
	"fixrule/internal/repair"
	"fixrule/internal/schema"
)

var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// newOpsServer builds a *Server (not just an httptest wrapper) so tests
// can reach the semaphore and registry.
func newOpsServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sch := schema.New("Travel", "name", "country", "capital", "city", "conf")
	rs := core.MustRuleset(
		core.MustNew("phi1", sch, map[string]string{"country": "China"},
			"capital", []string{"Shanghai", "Hongkong"}, "Beijing"),
		core.MustNew("phi4", sch,
			map[string]string{"capital": "Beijing", "conf": "ICDE"},
			"city", []string{"Hongkong"}, "Shanghai"),
	)
	rep, err := repair.NewRepairerChecked(rs)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Logger == nil {
		cfg.Logger = discardLogger
	}
	s := NewWithConfig(rep, cfg)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

// decodeEnvelope asserts the response is a JSON error envelope and
// returns its stable code.
func decodeEnvelope(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not an envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope incomplete: %+v", env)
	}
	return env.Error.Code
}

// TestErrorEnvelopeShape: every failure mode answers with the JSON
// envelope and its documented stable code.
func TestErrorEnvelopeShape(t *testing.T) {
	_, srv := newOpsServer(t, Config{})
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"bad json", "POST", "/repair", "not json", 400, codeBadJSON},
		{"arity", "POST", "/repair", `{"tuples": [["short"]]}`, 400, codeArityMismatch},
		{"algorithm", "POST", "/repair", `{"tuples": [], "algorithm": "quantum"}`, 400, codeBadAlgorithm},
		{"method", "GET", "/repair", "", 405, codeMethodNotAllowed},
		{"format", "GET", "/rules?format=xml", "", 400, codeBadFormat},
		{"csv header", "POST", "/repair/csv", "a,b\n1,2\n", 400, codeBadStream},
		{"csv algorithm", "POST", "/repair/csv?algorithm=quantum", "", 400, codeBadAlgorithm},
		{"explain bad json", "POST", "/explain", "garbage", 400, codeBadJSON},
		{"reload disabled", "POST", "/reload", "", 501, codeReloadDisabled},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, _ := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.wantStatus {
				t.Errorf("status = %d, want %d", resp.StatusCode, c.wantStatus)
			}
			if code := decodeEnvelope(t, resp); code != c.wantCode {
				t.Errorf("code = %q, want %q", code, c.wantCode)
			}
		})
	}
}

// TestVersionHeaders: every response names the ruleset that served it.
func TestVersionHeaders(t *testing.T) {
	_, srv := newOpsServer(t, Config{})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := resp.Header.Get(VersionHeader); v != "1" {
		t.Errorf("%s = %q, want 1", VersionHeader, v)
	}
	if h := resp.Header.Get(HashHeader); len(h) != 12 {
		t.Errorf("%s = %q, want 12 hex digits", HashHeader, h)
	}
}

// TestBodyTooLarge: an over-limit body is refused with 413 and the
// body_too_large code on both repair endpoints.
func TestBodyTooLarge(t *testing.T) {
	_, srv := newOpsServer(t, Config{MaxBodyBytes: 64})
	big := `{"tuples": [["` + strings.Repeat("x", 200) + `","a","b","c","d"]]}`
	resp, err := http.Post(srv.URL+"/repair", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("/repair status = %d, want 413", resp.StatusCode)
	}
	if code := decodeEnvelope(t, resp); code != codeBodyTooLarge {
		t.Errorf("code = %q", code)
	}
	csvBody := "name,country,capital,city,conf\n" + strings.Repeat("a,b,c,d,e\n", 50)
	resp, err = http.Post(srv.URL+"/repair/csv", "text/csv", strings.NewReader(csvBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), codeBodyTooLarge) {
		t.Errorf("csv over-limit body = %q, want %s envelope", body, codeBodyTooLarge)
	}
}

// TestLoadShedding: with the semaphore held, repair endpoints shed with
// 503 + Retry-After while unlimited endpoints keep answering; releasing
// the slot restores service.
func TestLoadShedding(t *testing.T) {
	s, srv := newOpsServer(t, Config{MaxInFlight: 1})
	s.sem <- struct{}{} // occupy the only slot
	resp, err := http.Post(srv.URL+"/repair", "application/json",
		strings.NewReader(`{"tuples": []}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1", ra)
	}
	if code := decodeEnvelope(t, resp); code != codeOverloaded {
		t.Errorf("code = %q", code)
	}
	// Health and metrics stay reachable under shed.
	for _, path := range []string{"/healthz", "/metrics", "/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s under shed = %d", path, resp.StatusCode)
		}
	}
	<-s.sem
	resp, err = http.Post(srv.URL+"/repair", "application/json",
		strings.NewReader(`{"tuples": []}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release status = %d, want 200", resp.StatusCode)
	}
}

// slowChunk blocks once, then ends; stitched into a request body it
// simulates a stalled upload.
type slowChunk struct {
	d    time.Duration
	done bool
}

func (s *slowChunk) Read(p []byte) (int, error) {
	if s.done {
		return 0, io.EOF
	}
	time.Sleep(s.d)
	s.done = true
	return 0, io.EOF
}

// TestStreamingDeadline: a stalled CSV upload is cut off by the
// per-request deadline and reported as request_timeout. The context is
// polled every 64 rows, so the tail of the stream must exceed that.
func TestStreamingDeadline(t *testing.T) {
	_, srv := newOpsServer(t, Config{RequestTimeout: 20 * time.Millisecond})
	var rows strings.Builder
	for i := 0; i < 70; i++ {
		rows.WriteString("Ian,China,Shanghai,Hongkong,ICDE\n")
	}
	body := io.MultiReader(
		strings.NewReader("name,country,capital,city,conf\n"),
		&slowChunk{d: 60 * time.Millisecond},
		strings.NewReader(rows.String()),
	)
	resp, err := http.Post(srv.URL+"/repair/csv", "text/csv", body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), codeTimeout) {
		t.Errorf("stalled stream body = %q, want %s envelope", raw, codeTimeout)
	}
}

// TestMetricsEndpoint: the exposition carries the request counters, the
// repair totals, the latency histogram and the ruleset identity.
func TestMetricsEndpoint(t *testing.T) {
	_, srv := newOpsServer(t, Config{})
	resp, err := http.Post(srv.URL+"/repair", "application/json",
		strings.NewReader(`{"tuples": [["Ian","China","Shanghai","Hongkong","ICDE"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		`fixserve_requests_total{endpoint="/repair"} 1`,
		"fixserve_tuples_total 1",
		"fixserve_tuples_repaired_total 1",
		"fixserve_rules_fired_total 2",
		"fixserve_oov_cells_total 0",
		"fixserve_ruleset_version 1",
		"fixserve_request_duration_seconds_bucket",
		"fixserve_request_duration_seconds_count",
		`fixserve_ruleset_info{version="1",hash=`,
		"# TYPE fixserve_requests_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestServerStatsEndpoint: /stats mirrors the counters in JSON with
// latency quantiles.
func TestServerStatsEndpoint(t *testing.T) {
	_, srv := newOpsServer(t, Config{})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/repair", "application/json",
			strings.NewReader(`{"tuples": [["Ian","China","Shanghai","Hongkong","ICDE"]]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats serverStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.RulesetVersion != 1 || stats.Rules != 2 {
		t.Errorf("stats identity = %+v", stats)
	}
	if stats.Tuples != 3 || stats.TuplesRepaired != 3 || stats.RulesFired != 6 {
		t.Errorf("stats totals = %+v", stats)
	}
	if stats.Requests["/repair"] != 3 {
		t.Errorf("requests = %v", stats.Requests)
	}
	if stats.LatencyP99Ms < stats.LatencyP50Ms {
		t.Errorf("quantiles inverted: %+v", stats)
	}
}

// reloadPair returns two consistent single-rule rulesets over the Travel
// schema that repair the same dirty tuple to different facts, plus the
// fact each produces — the fixture for every reload test.
func reloadPair() (a, b *core.Ruleset) {
	sch := schema.New("Travel", "name", "country", "capital", "city", "conf")
	mk := func(fact string) *core.Ruleset {
		return core.MustRuleset(core.MustNew("phi1", sch,
			map[string]string{"country": "China"},
			"capital", []string{"Shanghai", "Hongkong"}, fact))
	}
	return mk("Beijing"), mk("Peking")
}

// TestReloadEndpoint: a reload swaps the ruleset, bumps the version and
// changes the hash; repairs afterwards use the new rules.
func TestReloadEndpoint(t *testing.T) {
	rsA, rsB := reloadPair()
	next := rsB
	cfg := Config{Loader: func() (*core.Ruleset, error) { return next, nil }}
	repA, err := repair.NewRepairerChecked(rsA)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Logger = discardLogger
	s := NewWithConfig(repA, cfg)
	srv := httptest.NewServer(s)
	defer srv.Close()

	repairCapital := func() (string, string) {
		resp, err := http.Post(srv.URL+"/repair", "application/json",
			strings.NewReader(`{"tuples": [["Ian","China","Shanghai","x","y"]]}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out repairResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Repaired[0].Tuple[2], resp.Header.Get(VersionHeader)
	}

	if capital, v := repairCapital(); capital != "Beijing" || v != "1" {
		t.Fatalf("pre-reload: capital %q version %s", capital, v)
	}
	hash1 := s.def.eng.Load().hash

	resp, err := http.Post(srv.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var info RulesetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Version != 2 || info.Rules != 1 || info.Hash == hash1 {
		t.Fatalf("reload info = %+v (old hash %s)", info, hash1)
	}
	if capital, v := repairCapital(); capital != "Peking" || v != "2" {
		t.Fatalf("post-reload: capital %q version %s", capital, v)
	}
}

// TestReloadRejectsBadRuleset: loader failures and inconsistent rulesets
// are refused with their envelope codes and leave the engine untouched.
func TestReloadRejectsBadRuleset(t *testing.T) {
	rsA, _ := reloadPair()
	sch := rsA.Schema()
	// An Example 8-style conflict: same evidence, contradictory facts.
	inconsistent := core.MustRuleset(
		core.MustNew("x", sch, map[string]string{"country": "China"},
			"capital", []string{"Shanghai"}, "Beijing"),
		core.MustNew("y", sch, map[string]string{"country": "China"},
			"capital", []string{"Shanghai"}, "Nanjing"),
	)
	mode := "error"
	cfg := Config{Loader: func() (*core.Ruleset, error) {
		if mode == "error" {
			return nil, io.ErrUnexpectedEOF
		}
		return inconsistent, nil
	}, Logger: discardLogger}
	repA, err := repair.NewRepairerChecked(rsA)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(repA, cfg)
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("loader-error status = %d, want 500", resp.StatusCode)
	}
	if code := decodeEnvelope(t, resp); code != codeReloadFailed {
		t.Errorf("code = %q", code)
	}

	mode = "inconsistent"
	resp, err = http.Post(srv.URL+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("inconsistent status = %d, want 422", resp.StatusCode)
	}
	if code := decodeEnvelope(t, resp); code != codeInconsistent {
		t.Errorf("code = %q", code)
	}
	if v := s.def.eng.Load().version; v != 1 {
		t.Errorf("failed reloads bumped version to %d", v)
	}
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats serverStatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.ReloadFailures != 2 || stats.Reloads != 0 {
		t.Errorf("reload counters = %+v", stats)
	}
}

// TestRulesetHashStable: the hash depends on rule content only, so two
// replicas loading the same file agree.
func TestRulesetHashStable(t *testing.T) {
	rsA, rsB := reloadPair()
	rsA2, _ := reloadPair()
	if RulesetHash(rsA) != RulesetHash(rsA2) {
		t.Error("identical rulesets hash differently")
	}
	if RulesetHash(rsA) == RulesetHash(rsB) {
		t.Error("different rulesets share a hash")
	}
}
