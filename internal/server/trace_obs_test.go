package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fixrule/internal/repair"
	"fixrule/internal/repairlog"
	"fixrule/internal/schema"
	"fixrule/internal/trace"
)

// sampledTracer builds a tracer that samples every request, so tests can
// rely on their traces landing in the ring.
func sampledTracer() *trace.Tracer {
	return trace.New(trace.Options{SampleRate: 1})
}

// TestResponseCarriesRequestID: every response carries X-Request-Id and a
// valid traceparent, and consecutive requests get distinct IDs.
func TestResponseCarriesRequestID(t *testing.T) {
	_, srv := newOpsServer(t, Config{})
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get(RequestIDHeader)
		if id == "" {
			t.Fatal("response missing X-Request-Id")
		}
		if seen[id] {
			t.Fatalf("request ID %q reused", id)
		}
		seen[id] = true
		if _, ok := trace.ParseTraceparent(resp.Header.Get("traceparent")); !ok {
			t.Errorf("response traceparent %q invalid", resp.Header.Get("traceparent"))
		}
	}
}

// TestErrorEnvelopeCarriesRequestID is the regression test for correlating
// operational failures with logs: the 413 and 503 envelopes must carry the
// same request ID the response header (and log line) has.
func TestErrorEnvelopeCarriesRequestID(t *testing.T) {
	decode := func(t *testing.T, resp *http.Response) errorDetail {
		t.Helper()
		defer resp.Body.Close()
		var env errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("decoding envelope: %v", err)
		}
		return env.Error
	}
	check := func(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
		d := decode(t, resp)
		if d.Code != wantCode {
			t.Fatalf("code = %q, want %q", d.Code, wantCode)
		}
		if d.RequestID == "" || d.RequestID != resp.Header.Get(RequestIDHeader) {
			t.Errorf("envelope request_id = %q, header = %q",
				d.RequestID, resp.Header.Get(RequestIDHeader))
		}
		sc, ok := trace.ParseTraceparent(resp.Header.Get("traceparent"))
		if !ok {
			t.Fatalf("response traceparent %q invalid", resp.Header.Get("traceparent"))
		}
		if d.TraceID != sc.TraceID.String() {
			t.Errorf("envelope trace_id = %q, traceparent has %q", d.TraceID, sc.TraceID)
		}
	}

	t.Run("413", func(t *testing.T) {
		_, srv := newOpsServer(t, Config{MaxBodyBytes: 64})
		big := `{"tuples": [["` + strings.Repeat("x", 200) + `","a","b","c","d"]]}`
		resp, err := http.Post(srv.URL+"/repair", "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		check(t, resp, http.StatusRequestEntityTooLarge, codeBodyTooLarge)
	})
	t.Run("503", func(t *testing.T) {
		s, srv := newOpsServer(t, Config{MaxInFlight: 1})
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		resp, err := http.Post(srv.URL+"/repair", "application/json",
			strings.NewReader(`{"tuples": []}`))
		if err != nil {
			t.Fatal(err)
		}
		check(t, resp, http.StatusServiceUnavailable, codeOverloaded)
	})
}

// syncBuffer makes a bytes.Buffer safe to share between the server's log
// goroutines and the test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestLogCorrelation: the structured request log line carries the
// same request_id and trace_id the client saw in its error envelope, at
// Warn for a 4xx.
func TestRequestLogCorrelation(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, srv := newOpsServer(t, Config{Logger: logger, MaxBodyBytes: 64})
	big := `{"tuples": [["` + strings.Repeat("x", 200) + `","a","b","c","d"]]}`
	resp, err := http.Post(srv.URL+"/repair", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	found := waitRequestLog(t, &buf, "/repair")
	if found.Status != http.StatusRequestEntityTooLarge {
		t.Errorf("logged status = %d, want 413", found.Status)
	}
	if found.Level != "WARN" {
		t.Errorf("4xx logged at %s, want WARN", found.Level)
	}
	if found.RequestID != env.Error.RequestID {
		t.Errorf("log request_id = %q, envelope has %q", found.RequestID, env.Error.RequestID)
	}
	if found.TraceID != env.Error.TraceID {
		t.Errorf("log trace_id = %q, envelope has %q", found.TraceID, env.Error.TraceID)
	}
}

// requestLogLine is the part of the structured request log line the tests
// read.
type requestLogLine struct {
	Level     string `json:"level"`
	Msg       string `json:"msg"`
	Endpoint  string `json:"endpoint"`
	Status    int    `json:"status"`
	RequestID string `json:"request_id"`
	TraceID   string `json:"trace_id"`
}

// waitRequestLog returns the first request log line for endpoint. The
// line is written after the handler returns, so it polls briefly.
func waitRequestLog(t *testing.T, buf *syncBuffer, endpoint string) requestLogLine {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		for _, line := range strings.Split(buf.String(), "\n") {
			var ll requestLogLine
			if json.Unmarshal([]byte(line), &ll) == nil && ll.Msg == "request" && ll.Endpoint == endpoint {
				return ll
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("request log line never appeared; log:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamFailureAfterFirstByteCounted: a /repair/csv stream that fails
// after its 200 status line and more than 256 KiB of output went out is
// recorded as the failure it is. The client still sees the 200 and the
// trailing envelope, but the error counter and the access log carry the
// envelope's 400.
func TestStreamFailureAfterFirstByteCounted(t *testing.T) {
	var buf syncBuffer
	_, srv := newOpsServer(t, Config{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	body, _ := travelCSV(30000)
	body += "short,row\n"
	resp, err := http.Post(srv.URL+"/repair/csv", "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200 (the stream had started)", resp.StatusCode)
	}
	idx := bytes.Index(raw, []byte(`{"error"`))
	if idx <= 256<<10 || !bytes.Contains(raw[idx:], []byte(codeBadStream)) {
		t.Fatalf("want a %s envelope after more than 256 KiB of output; envelope at %d of %d bytes",
			codeBadStream, idx, len(raw))
	}
	if ll := waitRequestLog(t, &buf, "/repair/csv"); ll.Status != http.StatusBadRequest || ll.Level != "WARN" {
		t.Errorf("access log: status %d at %s, want 400 at WARN", ll.Status, ll.Level)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readBody(t, resp)
	for _, want := range []string{
		`fixserve_errors_total{endpoint="/repair/csv",class="4xx"} 1`,
		`fixserve_errors_total{endpoint="/repair/csv",class="5xx"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// travelCSV builds a CSV over the ops fixture schema with deterministic
// dirty rows (the Example 1 errors), returning the raw CSV and the rows.
func travelCSV(n int) (string, []schema.Tuple) {
	var b strings.Builder
	b.WriteString("name,country,capital,city,conf\n")
	rows := make([]schema.Tuple, 0, n)
	for i := 0; i < n; i++ {
		row := schema.Tuple{fmt.Sprintf("p%d", i), "China", "Beijing", "Shanghai", "ICDE"}
		if i%7 == 1 {
			row = schema.Tuple{fmt.Sprintf("p%d", i), "China", "Shanghai", "Hongkong", "ICDE"}
		}
		rows = append(rows, row)
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String(), rows
}

// chaseStepsToLog converts the chase.step events of a trace detail into
// repairlog entries, in the order the events appear.
func chaseStepsToLog(t *testing.T, detail traceDetail) []repairlog.Entry {
	t.Helper()
	var entries []repairlog.Entry
	for _, sp := range detail.Spans {
		for _, ev := range sp.Events {
			if ev.Name != "chase.step" {
				continue
			}
			attrs := map[string]string{}
			for _, a := range ev.Attrs {
				attrs[a.Key] = a.Value
			}
			row, err := strconv.Atoi(attrs["row"])
			if err != nil {
				t.Fatalf("chase.step row = %q: %v", attrs["row"], err)
			}
			entries = append(entries, repairlog.Entry{
				Row: row, Attr: attrs["attr"], Old: attrs["from"], New: attrs["to"],
			})
		}
	}
	return entries
}

// TestDebugTracesChaseStepsMatchRepairlog is the acceptance property: for a
// sampled /repair/csv request, the chase steps recorded on its trace in
// /debug/traces are exactly the repairlog entries a batch repair of the
// same data produces — same rows, same attributes, same old/new strings,
// same order. Checked for the sequential and the parallel stream.
func TestDebugTracesChaseStepsMatchRepairlog(t *testing.T) {
	csvIn, rows := travelCSV(200)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, srv := newOpsServer(t, Config{
				Tracer:        sampledTracer(),
				StreamWorkers: workers,
			})
			resp, err := http.Post(srv.URL+"/repair/csv?algorithm=chase", "text/csv",
				strings.NewReader(csvIn))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			sc, ok := trace.ParseTraceparent(resp.Header.Get("traceparent"))
			if !ok {
				t.Fatalf("response traceparent %q invalid", resp.Header.Get("traceparent"))
			}

			resp, err = http.Get(srv.URL + "/debug/traces/" + sc.TraceID.String())
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("trace lookup status = %d, body %s", resp.StatusCode, body)
			}
			var detail traceDetail
			if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			got := chaseStepsToLog(t, detail)

			rel := schema.FromRows(s.Ruleset().Schema(), rows)
			res := s.def.eng.Load().rep.RepairRelation(rel, repair.Chase)
			want := repairlog.FromResult(rel, res.Relation, res.Changed)
			if len(want) == 0 {
				t.Fatal("fixture produced no repairs; test is vacuous")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("chase steps diverge from repairlog:\ngot  %v\nwant %v", got, want)
			}
		})
	}
}

// TestDebugTracesList: the listing surfaces sampled traces newest-first
// with request IDs, honours ?limit, and unknown IDs 404 with the stable
// code.
func TestDebugTracesList(t *testing.T) {
	_, srv := newOpsServer(t, Config{Tracer: sampledTracer()})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/repair", "application/json",
			strings.NewReader(`{"tuples": [["Ian","China","Shanghai","Hongkong","ICDE"]]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/debug/traces?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Traces []traceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Traces) != 2 {
		t.Fatalf("limit=2 returned %d traces", len(list.Traces))
	}
	for _, tr := range list.Traces {
		if tr.TraceID == "" || tr.RequestID == "" || tr.Endpoint != "/repair" {
			t.Errorf("summary incomplete: %+v", tr)
		}
	}

	resp, err = http.Get(srv.URL + "/debug/traces/ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", resp.StatusCode)
	}
	if code := decodeEnvelope(t, resp); code != codeTraceNotFound {
		t.Errorf("code = %q", code)
	}
}

// TestTraceparentPropagation: an incoming sampled traceparent is adopted —
// the request joins the caller's trace and the trace is retained under the
// caller's ID.
func TestTraceparentPropagation(t *testing.T) {
	_, srv := newOpsServer(t, Config{}) // sampling off: the decision must come from the header
	const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/repair",
		strings.NewReader(`{"tuples": [["Ian","China","Shanghai","Hongkong","ICDE"]]}`))
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sc, ok := trace.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || sc.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("response traceparent = %q, want caller's trace ID", resp.Header.Get("traceparent"))
	}
	resp, err = http.Get(srv.URL + "/debug/traces/0af7651916cd43dd8448eb211c80319c")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inherited sampled trace not retained: status %d", resp.StatusCode)
	}
}

// TestMetricsExemplars: a sampled request attaches its trace ID to the
// latency bucket it landed in, but the exemplar is only rendered for
// scrapers that negotiate application/openmetrics-text — a plain 0.0.4
// scrape must stay parseable (no `#` after any sample value).
func TestMetricsExemplars(t *testing.T) {
	_, srv := newOpsServer(t, Config{Tracer: sampledTracer()})
	resp, err := http.Post(srv.URL+"/repair", "application/json",
		strings.NewReader(`{"tuples": [["Ian","China","Shanghai","Hongkong","ICDE"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	scrape := func(accept string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(body), resp.Header.Get("Content-Type")
	}

	// Prometheus's default Accept header negotiates OpenMetrics.
	om, ct := scrape("application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5")
	if !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("OpenMetrics scrape Content-Type = %q", ct)
	}
	idx := strings.Index(om, "fixserve_request_duration_seconds_bucket")
	if idx < 0 {
		t.Fatal("latency buckets missing from exposition")
	}
	if !strings.Contains(om[idx:], `# {trace_id="`) {
		t.Error("no exemplar on any latency bucket after a sampled request")
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("OpenMetrics exposition must terminate with # EOF")
	}

	// A plain scrape gets the classic format with no exemplars at all.
	plain, ct := scrape("")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("plain scrape Content-Type = %q", ct)
	}
	if strings.Contains(plain, "trace_id") {
		t.Error("exemplar leaked into the 0.0.4 exposition")
	}
	if strings.Contains(plain, "# EOF") {
		t.Error("# EOF is OpenMetrics-only")
	}
}

// TestPerAttrSeries: repairs and OOV cells surface as per-attribute
// labeled counters, and the build-info gauge is present.
func TestPerAttrSeries(t *testing.T) {
	_, srv := newOpsServer(t, Config{})
	// One dirty tuple (capital and city repaired) and one OOV country.
	for _, body := range []string{
		`{"tuples": [["Ian","China","Shanghai","Hongkong","ICDE"]]}`,
		`{"tuples": [["Eve","Chine","Beijing","Shanghai","ICDE"]]}`,
	} {
		resp, err := http.Post(srv.URL+"/repair", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		`fixserve_cells_changed_total{attr="capital"} 1`,
		`fixserve_cells_changed_total{attr="city"} 1`,
		`fixserve_cells_changed_total{attr="country"} 0`,
		`fixserve_cells_oov_total{attr="country"} 1`,
		`fixserve_build_info{version=`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPprofGating: /debug/pprof/ is absent by default and served when the
// operator enables it.
func TestPprofGating(t *testing.T) {
	_, srv := newOpsServer(t, Config{})
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof served without opt-in: status %d", resp.StatusCode)
	}
	_, srv = newOpsServer(t, Config{EnablePprof: true})
	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof enabled but status = %d", resp.StatusCode)
	}
}
