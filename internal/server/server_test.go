package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fixrule/internal/core"
	"fixrule/internal/repair"
	"fixrule/internal/schema"
	"fixrule/internal/store"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	sch := schema.New("Travel", "name", "country", "capital", "city", "conf")
	rs := core.MustRuleset(
		core.MustNew("phi1", sch, map[string]string{"country": "China"},
			"capital", []string{"Shanghai", "Hongkong"}, "Beijing"),
		core.MustNew("phi2", sch, map[string]string{"country": "Canada"},
			"capital", []string{"Toronto"}, "Ottawa"),
		core.MustNew("phi4", sch,
			map[string]string{"capital": "Beijing", "conf": "ICDE"},
			"city", []string{"Hongkong"}, "Shanghai"),
	)
	rep, err := repair.NewRepairerChecked(rs)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(rep))
	t.Cleanup(srv.Close)
	return srv
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestRulesEndpoints(t *testing.T) {
	srv := testServer(t)
	// DSL.
	resp, err := http.Get(srv.URL + "/rules")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "RULE phi1") {
		t.Errorf("DSL body:\n%s", body)
	}
	// JSON.
	resp, err = http.Get(srv.URL + "/rules?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rules []struct{ Name string } `json:"rules"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(doc.Rules) != 3 {
		t.Errorf("json rules = %d", len(doc.Rules))
	}
	// Bad format.
	resp, _ = http.Get(srv.URL + "/rules?format=xml")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("xml format status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Stats.
	resp, err = http.Get(srv.URL + "/rules/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Rules != 3 || stats.PerTarget["capital"] != 2 || stats.Negatives != 4 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRepairEndpoint(t *testing.T) {
	srv := testServer(t)
	req := `{"tuples": [
		["Ian", "China", "Shanghai", "Hongkong", "ICDE"],
		["George", "China", "Beijing", "Beijing", "SIGMOD"]
	]}`
	resp, err := http.Post(srv.URL+"/repair", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out repairResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Changed != 1 || len(out.Repaired) != 2 {
		t.Fatalf("response = %+v", out)
	}
	fixed := out.Repaired[0]
	if fixed.Tuple[2] != "Beijing" || fixed.Tuple[3] != "Shanghai" {
		t.Errorf("repaired tuple = %v", fixed.Tuple)
	}
	if len(fixed.Steps) != 2 || fixed.Steps[0].Rule != "phi1" || fixed.Steps[1].Rule != "phi4" {
		t.Errorf("steps = %+v", fixed.Steps)
	}
	if len(out.Repaired[1].Steps) != 0 {
		t.Error("clean tuple gained steps")
	}
}

func TestRepairEndpointErrors(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"tuples": [["too","short"]]}`, http.StatusBadRequest},
		{`{"tuples": [], "algorithm": "quantum"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/repair", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("body %q: status = %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
	// Wrong method.
	resp, _ := http.Get(srv.URL + "/repair")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /repair status = %d", resp.StatusCode)
	}
}

func TestRepairCSVEndpoint(t *testing.T) {
	srv := testServer(t)
	csvIn := "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n"
	resp, err := http.Post(srv.URL+"/repair/csv", "text/csv", strings.NewReader(csvIn))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "Ian,China,Beijing,Shanghai,ICDE") {
		t.Errorf("csv body:\n%s", body)
	}
	// Chase algorithm via query parameter.
	resp, err = http.Post(srv.URL+"/repair/csv?algorithm=chase", "text/csv", strings.NewReader(csvIn))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("chase status = %d", resp.StatusCode)
	}
	// Bad header: the error text must reach the client body.
	resp, _ = http.Post(srv.URL+"/repair/csv", "text/csv", strings.NewReader("a,b\n1,2\n"))
	errBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(errBody), "header") {
		t.Errorf("bad-header body = %q", errBody)
	}
}

// TestRepairCSVColumnarNegotiation exercises the /repair/csv content
// negotiation: CSV in gives the repaired CSV out, an Accept of
// application/x-fcol must switch the response to columnar frames, a
// columnar body must round-trip, and the rejection path must carry its
// status code.
func TestRepairCSVColumnarNegotiation(t *testing.T) {
	srv := testServer(t)
	csvIn := "name,country,capital,city,conf\n" +
		"Ian,China,Shanghai,Hongkong,ICDE\n" +
		"Ann,Canada,Toronto,Ottawa,SIGMOD\n"
	post := func(path, contentType, accept, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
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
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	// CSV in, CSV out. The retired engine parameter is not read: a stale
	// one changes nothing.
	wantCSV := "name,country,capital,city,conf\n" +
		"Ian,China,Beijing,Shanghai,ICDE\n" +
		"Ann,Canada,Ottawa,Ottawa,SIGMOD\n"
	for _, path := range []string{"/repair/csv", "/repair/csv?engine=quantum"} {
		resp, body := post(path, "text/csv", "", csvIn)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", path, resp.StatusCode, body)
		}
		if string(body) != wantCSV {
			t.Errorf("%s: body =\n%swant\n%s", path, body, wantCSV)
		}
	}

	// CSV in, columnar out.
	resp, fcolBody := post("/repair/csv", "text/csv", store.ColumnarContentType, csvIn)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv-to-fcol status = %d: %s", resp.StatusCode, fcolBody)
	}
	if ct := resp.Header.Get("Content-Type"); ct != store.ColumnarContentType {
		t.Errorf("csv-to-fcol content type = %q", ct)
	}
	sc, err := store.NewChunkScanner(bytes.NewReader(fcolBody))
	if err != nil {
		t.Fatalf("scanning fcol response: %v", err)
	}
	var chunk store.ColChunk
	if _, err := sc.ReadChunk(&chunk); err != nil {
		t.Fatalf("reading fcol chunk: %v", err)
	}
	if got := chunk.Value(0, 2); got != "Beijing" {
		t.Errorf("fcol capital = %q, want Beijing", got)
	}

	// Columnar in, columnar out: feed the converted frames back.
	resp, rtBody := post("/repair/csv", store.ColumnarContentType, store.ColumnarContentType, string(fcolBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fcol round-trip status = %d: %s", resp.StatusCode, rtBody)
	}
	if ct := resp.Header.Get("Content-Type"); ct != store.ColumnarContentType {
		t.Errorf("fcol round-trip content type = %q", ct)
	}
	if sc, err = store.NewChunkScanner(bytes.NewReader(rtBody)); err != nil {
		t.Fatalf("scanning round-trip response: %v", err)
	}
	if _, err := sc.ReadChunk(&chunk); err != nil {
		t.Fatalf("reading round-trip chunk: %v", err)
	}
	if got := chunk.Value(0, 2); got != "Beijing" {
		t.Errorf("round-trip capital = %q, want Beijing", got)
	}

	// A columnar body with a CSV-only Accept cannot be served.
	resp, _ = post("/repair/csv", store.ColumnarContentType, "text/csv", string(fcolBody))
	if resp.StatusCode != http.StatusNotAcceptable {
		t.Errorf("fcol-to-csv status = %d, want 406", resp.StatusCode)
	}
}

// TestRepairCSVEndpointParallel configures the handler with a parallel
// stream worker pool and checks the response bytes and gauges: output must
// be byte-identical to the sequential configuration, and the occupancy
// gauges must read zero once the request completes.
func TestRepairCSVEndpointParallel(t *testing.T) {
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
	var csvIn strings.Builder
	csvIn.WriteString("name,country,capital,city,conf\n")
	for i := 0; i < 2000; i++ {
		csvIn.WriteString("Ian,China,Shanghai,Hongkong,ICDE\n")
	}

	seqSrv := httptest.NewServer(New(rep))
	defer seqSrv.Close()
	parSrv := httptest.NewServer(NewWithConfig(rep, Config{StreamWorkers: 3}))
	defer parSrv.Close()

	fetch := func(url string) string {
		resp, err := http.Post(url+"/repair/csv", "text/csv", strings.NewReader(csvIn.String()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
		}
		return string(body)
	}
	seqBody, parBody := fetch(seqSrv.URL), fetch(parSrv.URL)
	if seqBody != parBody {
		t.Error("parallel /repair/csv body differs from sequential")
	}
	if !strings.Contains(parBody, "Ian,China,Beijing,Shanghai,ICDE") {
		t.Errorf("parallel body lacks repaired row:\n%.200s", parBody)
	}

	// The stream gauges must exist in the exposition and be back to zero.
	resp, err := http.Get(parSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"fixserve_stream_queue_depth 0",
		"fixserve_stream_busy_workers 0",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := testServer(t)
	req := `{"tuple": ["Ian", "China", "Shanghai", "Hongkong", "ICDE"]}`
	resp, err := http.Post(srv.URL+"/explain", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out explainResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Steps) != 2 || out.Output[2] != "Beijing" {
		t.Errorf("explanation = %+v", out)
	}
	if !strings.Contains(out.Text, "phi1") {
		t.Errorf("text = %q", out.Text)
	}
	// Arity mismatch.
	resp, _ = http.Post(srv.URL+"/explain", "application/json", strings.NewReader(`{"tuple": ["x"]}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short tuple status = %d", resp.StatusCode)
	}
}

func TestSortedTargets(t *testing.T) {
	sch := schema.New("R", "a", "b", "c")
	rs := core.MustRuleset(
		core.MustNew("x", sch, map[string]string{"a": "1"}, "c", []string{"2"}, "3"),
		core.MustNew("y", sch, map[string]string{"a": "2"}, "b", []string{"9"}, "4"),
	)
	got := SortedTargets(rs)
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Errorf("targets = %v", got)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{"/rules", "/rules/stats"} {
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/repair/csv", "/explain"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

func TestExplainBadInput(t *testing.T) {
	srv := testServer(t)
	resp, _ := http.Post(srv.URL+"/explain", "application/json", strings.NewReader("garbage"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage explain = %d", resp.StatusCode)
	}
	resp, _ = http.Post(srv.URL+"/explain", "application/json",
		strings.NewReader(`{"tuple": ["a","b","c","d","e"], "algorithm": "quantum"}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad algorithm explain = %d", resp.StatusCode)
	}
	resp, _ = http.Post(srv.URL+"/repair/csv?algorithm=quantum", "text/csv", strings.NewReader(""))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad algorithm csv = %d", resp.StatusCode)
	}
}
