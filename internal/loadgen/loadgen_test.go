// Package loadgen_test exercises the open-loop generator end to end: the
// coordinated-omission pacing contract against a synthetic slow server, and
// the full workload mix against a real fixserve Server.
package loadgen_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fixrule/internal/core"
	"fixrule/internal/loadgen"
	"fixrule/internal/repair"
	"fixrule/internal/schema"
	"fixrule/internal/server"
)

var travelHeader = []string{"name", "country", "capital", "city", "conf"}

var travelRows = [][]string{
	{"Ian", "China", "Shanghai", "Hongkong", "ICDE"},
	{"Mei", "China", "Beijing", "Shanghai", "SIGMOD"},
	{"Joe", "Canada", "Toronto", "Toronto", "VLDB"},
	{"Ann", "Canada", "Ottawa", "Ottawa", "ICDE"},
}

func travelRepairer(t *testing.T) *repair.Repairer {
	t.Helper()
	sch := schema.New("Travel", travelHeader...)
	rs := core.MustRuleset(
		core.MustNew("phi1", sch, map[string]string{"country": "China"},
			"capital", []string{"Shanghai", "Hongkong"}, "Beijing"),
		core.MustNew("phi2", sch, map[string]string{"country": "Canada"},
			"capital", []string{"Toronto"}, "Ottawa"),
	)
	rep, err := repair.NewRepairerChecked(rs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCoordinatedOmission is the pacing-math proof: a single worker against
// a server that takes ~20ms per request, driven at 100 rps for 600ms. A
// closed-loop generator would quietly degrade to ~50 rps and report ~20ms
// latency everywhere. The open-loop contract demands (a) the schedule emits
// all ~60 requests regardless of server speed, and (b) recorded latency is
// measured from the *scheduled* time, so queueing lag appears in the
// latency histogram even though per-request service time stays ~20ms.
func TestCoordinatedOmission(t *testing.T) {
	const serviceTime = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(serviceTime)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"tuples":[["a"]],"changed":0}`)
	}))
	defer srv.Close()

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL: srv.URL,
		Phases:  []loadgen.Phase{{RPS: 100, Duration: 600 * time.Millisecond}},
		Header:  []string{"a"},
		Rows:    [][]string{{"x"}},
		Conns:   1, // serialize: demand (100 rps) far exceeds capacity (~50 rps)
		Batch:   1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// (a) The schedule never throttled: all 60 scheduled requests were
	// attempted (completed or dropped), not the ~30 a closed loop would
	// manage in 600ms.
	if rep.Attempted < 55 || rep.Attempted > 65 {
		t.Errorf("attempted = %d, want ~60 (open-loop schedule must not throttle)", rep.Attempted)
	}
	if rep.ErrRate() > 0 {
		t.Errorf("err rate = %v, want 0 (errors: %d, dropped: %d)", rep.ErrRate(), rep.Errors, rep.Dropped)
	}

	// (b) Service time (send-to-done) stays near the true 20ms...
	svcP50 := rep.Service.Quantile(0.50)
	if svcP50 < serviceTime || svcP50 > 10*serviceTime {
		t.Errorf("service p50 = %v, want ~%v", svcP50, serviceTime)
	}
	// ...while schedule-corrected latency surfaces the queueing backlog.
	// With one worker at ~20ms each, request #60 (scheduled at 590ms) waits
	// until ~1200ms — hundreds of ms of lag the corrected column must show.
	latMax := rep.Latency.Max()
	if latMax < 300*time.Millisecond {
		t.Errorf("corrected max latency = %v, want ≥ 300ms of schedule lag", latMax)
	}
	latP90 := rep.Latency.Quantile(0.90)
	if latP90 < rep.Service.Quantile(0.90)+100*time.Millisecond {
		t.Errorf("corrected p90 (%v) should exceed service p90 (%v) by ≥ 100ms of lag",
			latP90, rep.Service.Quantile(0.90))
	}

	// The human report calls the gap out.
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "schedule lag") {
		t.Errorf("report does not flag schedule lag:\n%s", buf.String())
	}
}

// TestRunAgainstServer drives the full mix against a real fixserve Server
// and checks outcomes, SLO verdicts, the JSON record, and /metrics scrapes.
func TestRunAgainstServer(t *testing.T) {
	s := server.New(travelRepairer(t))
	srv := httptest.NewServer(s)
	defer srv.Close()

	mix, err := loadgen.ParseMix("repair=4,csv=4,explain=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := loadgen.Config{
		BaseURL: srv.URL,
		Phases: []loadgen.Phase{
			{RPS: 200, Duration: 100 * time.Millisecond, Warmup: true},
			{RPS: 200, Duration: 400 * time.Millisecond},
		},
		Mix:        mix,
		Header:     travelHeader,
		Rows:       travelRows,
		Batch:      4,
		StreamRows: 8,
		Conns:      16,
	}
	if err := loadgen.Preflight(context.Background(), cfg); err != nil {
		t.Fatalf("preflight: %v", err)
	}

	before, err := loadgen.ScrapeMetrics(context.Background(), http.DefaultClient, srv.URL+"/metrics")
	if err != nil {
		t.Fatalf("scrape before: %v", err)
	}
	rep, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := loadgen.ScrapeMetrics(context.Background(), http.DefaultClient, srv.URL+"/metrics")
	if err != nil {
		t.Fatalf("scrape after: %v", err)
	}

	if rep.Attempted == 0 || rep.OK == 0 {
		t.Fatalf("attempted = %d, ok = %d; want load to flow", rep.Attempted, rep.OK)
	}
	if rep.ErrRate() != 0 {
		t.Errorf("err rate = %v (errors %d, truncated %d, dropped %d), want 0",
			rep.ErrRate(), rep.Errors, rep.Truncated, rep.Dropped)
	}
	if rep.Tuples == 0 {
		t.Error("no tuples counted")
	}
	// Warmup excluded from totals: the measured window is the 400ms phase.
	if rep.Duration != 400*time.Millisecond {
		t.Errorf("measured duration = %v, want 400ms", rep.Duration)
	}

	// SLO verdicts: generous bound passes, absurd bound fails.
	for _, tc := range []struct {
		slo  string
		want bool
	}{
		{"p50=10s,err=0%,shed=0%", true},
		{"max<1ns", false},
	} {
		slo, err := loadgen.ParseSLO(tc.slo)
		if err != nil {
			t.Fatal(err)
		}
		results, pass := slo.Evaluate(rep)
		if pass != tc.want {
			t.Errorf("SLO %q pass = %v, want %v (%+v)", tc.slo, pass, tc.want, results)
		}
		var buf bytes.Buffer
		loadgen.WriteSLOText(&buf, results, pass)
		if !strings.Contains(buf.String(), "overall:") {
			t.Errorf("SLO text missing overall verdict:\n%s", buf.String())
		}
	}

	// JSON record mirrors the bench schema and carries the extensions.
	recs := []loadgen.LoadRecord{rep.Record("travel", "load/mixed@200rps", "pass")}
	var jb bytes.Buffer
	if err := loadgen.WriteJSON(&jb, recs); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"dataset"`, `"tuples_per_sec"`, `"gomaxprocs"`, `"target_rps"`, `"p99_ms"`, `"err_rate"`} {
		if !strings.Contains(jb.String(), key) {
			t.Errorf("JSON record missing %s:\n%s", key, jb.String())
		}
	}

	// The server's own counters moved by the client's request count.
	served := loadgen.FamilyDelta(before, after, "fixserve_requests_total")
	if served < float64(rep.OK) {
		t.Errorf("server counted %v requests, client completed %d OK", served, rep.OK)
	}
	var db bytes.Buffer
	loadgen.WriteServerDelta(&db, before, after)
	if !strings.Contains(db.String(), "fixserve_requests_total") {
		t.Errorf("server delta missing request counter:\n%s", db.String())
	}
}

// TestShedAndRetryAfter: a saturated server's 503s are classified as shed,
// not errors, and the largest Retry-After hint is surfaced.
func TestShedAndRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"code":"overloaded","message":"server at capacity"}}`)
	}))
	defer srv.Close()

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL: srv.URL,
		Phases:  []loadgen.Phase{{RPS: 100, Duration: 200 * time.Millisecond}},
		Header:  []string{"a"},
		Rows:    [][]string{{"x"}},
		Conns:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 || rep.Shed != rep.Attempted {
		t.Errorf("shed = %d of %d attempted, want all", rep.Shed, rep.Attempted)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d, want 0 (503 is shed, not error)", rep.Errors)
	}
	if rep.ShedRate() != 1 {
		t.Errorf("shed rate = %v, want 1", rep.ShedRate())
	}
	var maxRA int64
	for _, ps := range rep.Phases {
		if v := ps.RetryAfterMax.Load(); v > maxRA {
			maxRA = v
		}
	}
	if maxRA != 7 {
		t.Errorf("RetryAfterMax = %d, want 7", maxRA)
	}
}

// TestTruncationDetection: a 2xx CSV stream that ends in an error envelope
// is a truncated stream, and counts against the error rate.
func TestTruncationDetection(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/csv")
		fmt.Fprint(w, "a,b\n1,2\n3,4\n")
		fmt.Fprint(w, `{"error":{"code":"internal","message":"engine died mid-stream"}}`)
	}))
	defer srv.Close()

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL: srv.URL,
		Phases:  []loadgen.Phase{{RPS: 50, Duration: 100 * time.Millisecond}},
		Mix:     []loadgen.MixEntry{{Op: loadgen.OpCSV, Weight: 1}},
		Header:  []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated == 0 || rep.Truncated != rep.Attempted {
		t.Errorf("truncated = %d of %d, want all flagged", rep.Truncated, rep.Attempted)
	}
	if rep.ErrRate() == 0 {
		t.Error("truncated streams must count in the error rate")
	}
	if rep.OK != 0 {
		t.Errorf("OK = %d, want 0", rep.OK)
	}
}

func TestParseMix(t *testing.T) {
	mix, err := loadgen.ParseMix("repair=4, csv, explain=0")
	if err != nil {
		t.Fatal(err)
	}
	// explain=0 drops out; bare "csv" defaults to weight 1.
	if len(mix) != 2 {
		t.Fatalf("mix = %+v, want 2 entries", mix)
	}
	if mix[0].Op != loadgen.OpRepair || mix[0].Weight != 4 {
		t.Errorf("entry 0 = %+v", mix[0])
	}
	if mix[1].Op != loadgen.OpCSV || mix[1].Weight != 1 {
		t.Errorf("entry 1 = %+v", mix[1])
	}
	// The retired columnar op is an unknown op now: the one engine runs
	// every csv request.
	for _, bad := range []string{"", "bogus=1", "repair=x", "repair=-1", "explain=0", "columnar=1"} {
		if _, err := loadgen.ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestPreflightFailure: a non-2xx, non-503 preflight fails fast with the
// server's envelope in the error.
func TestPreflightFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":{"code":"bad_arity","message":"want 5 fields"}}`)
	}))
	defer srv.Close()

	err := loadgen.Preflight(context.Background(), loadgen.Config{
		BaseURL: srv.URL,
		Header:  []string{"a"},
		Rows:    [][]string{{"x"}},
	})
	if err == nil {
		t.Fatal("preflight succeeded against a 400 server")
	}
	if !strings.Contains(err.Error(), "bad_arity") {
		t.Errorf("preflight error %q does not carry the envelope", err)
	}
}
