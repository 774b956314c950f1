package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"fixrule/internal/repair"
	"fixrule/internal/schema"
)

// TestMetricsMatchGroundTruth is the property tying the observability
// layer to the engine: after repairing a generated relation through the
// server, the registry counters (tuples, tuples repaired, rules fired,
// OOV cells) must equal the StreamStats of a direct Repairer run on the
// same input — the metrics are bookkeeping, never estimates.
func TestMetricsMatchGroundTruth(t *testing.T) {
	s, srv := newOpsServer(t, Config{})

	// A generated workload over the travel domain: mostly in-vocabulary
	// values, a sprinkling of out-of-vocabulary junk, deterministic seed.
	rng := rand.New(rand.NewSource(42))
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	var in strings.Builder
	in.WriteString("name,country,capital,city,conf\n")
	const rows = 500
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&in, "p%d,%s,%s,%s,%s\n", i,
			pick("China", "Canada", "Mars"),
			pick("Beijing", "Shanghai", "Hongkong", "Atlantis"),
			pick("Hongkong", "Shanghai", "Gotham"),
			pick("ICDE", "VLDB"))
	}
	input := in.String()

	resp, err := http.Post(srv.URL+"/repair/csv", "text/csv", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %q", resp.StatusCode, served)
	}

	// Ground truth: a fresh Repairer's in-memory repair of the same input.
	rep, err := repair.NewRepairerChecked(s.Ruleset())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := schema.ReadCSV(strings.NewReader(input), s.Ruleset().Schema())
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != rows {
		t.Fatalf("ground truth rows = %d", rel.Len())
	}
	res := rep.RepairRelation(rel, repair.Linear)
	var direct strings.Builder
	if err := schema.WriteCSV(&direct, res.Relation); err != nil {
		t.Fatal(err)
	}
	want := repair.StreamStats{Rows: rel.Len(), Steps: res.Steps, OOV: res.OOV}
	for i, c := range res.Changed {
		if i == 0 || res.Changed[i-1].Row != c.Row {
			want.Repaired++
		}
	}
	if direct.String() != string(served) {
		t.Error("served CSV differs from the in-memory repair")
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
	if stats.Tuples != int64(want.Rows) ||
		stats.TuplesRepaired != int64(want.Repaired) ||
		stats.RulesFired != int64(want.Steps) ||
		stats.OOVCells != int64(want.OOV) {
		t.Errorf("registry (tuples %d, repaired %d, fired %d, oov %d) != ground truth (%d, %d, %d, %d)",
			stats.Tuples, stats.TuplesRepaired, stats.RulesFired, stats.OOVCells,
			want.Rows, want.Repaired, want.Steps, want.OOV)
	}

	// The Prometheus exposition renders the same totals.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range []string{
		fmt.Sprintf("fixserve_tuples_total %d", want.Rows),
		fmt.Sprintf("fixserve_tuples_repaired_total %d", want.Repaired),
		fmt.Sprintf("fixserve_rules_fired_total %d", want.Steps),
		fmt.Sprintf("fixserve_oov_cells_total %d", want.OOV),
	} {
		if !strings.Contains(string(body), line) {
			t.Errorf("exposition missing %q", line)
		}
	}
	// The workload must actually have exercised every counter.
	if want.Repaired == 0 || want.Steps == 0 || want.OOV == 0 {
		t.Errorf("degenerate workload: %+v", want)
	}
}
