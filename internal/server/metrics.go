package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// handleMetrics serves the metrics exposition: the registry's counters,
// gauges and the latency histogram, plus — when a default ruleset is
// served — a ruleset info series whose labels carry its version and hash.
// Scrapers that negotiate application/openmetrics-text (Prometheus does by
// default) get the OpenMetrics rendering — trace-ID exemplars on the
// latency buckets, `# EOF` terminator; everyone else gets the classic
// 0.0.4 text format, which cannot legally carry exemplars.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, eng *engine) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	om := acceptsOpenMetrics(r.Header.Get("Accept"))
	if om {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		s.reg.WriteOpenMetrics(w)
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	}
	if eng != nil {
		fmt.Fprintf(w, "# HELP fixserve_ruleset_info Served ruleset identity; value is always 1.\n"+
			"# TYPE fixserve_ruleset_info gauge\n"+
			"fixserve_ruleset_info{version=%q,hash=%q} 1\n",
			fmt.Sprint(eng.version), eng.hash)
	}
	if om {
		io.WriteString(w, "# EOF\n")
	}
}

// acceptsOpenMetrics reports whether the Accept header offers the
// OpenMetrics media type. A plain membership test suffices: Prometheus
// sends it with an explicit positive q-value, and a scraper listing the
// type at all is prepared to parse it.
func acceptsOpenMetrics(accept string) bool {
	return strings.Contains(strings.ToLower(accept), "application/openmetrics-text")
}

// serverStatsResponse is the /stats payload: the operational counters in
// JSON form, with latency quantiles derived from the histogram. RequestID
// identifies this /stats request itself, so a scraped snapshot can be
// matched to the server log that surrounds it. The ruleset fields are
// omitted on a node without a default ruleset.
type serverStatsResponse struct {
	RequestID      string           `json:"request_id,omitempty"`
	RulesetVersion int64            `json:"ruleset_version,omitempty"`
	RulesetHash    string           `json:"ruleset_hash,omitempty"`
	Rules          int              `json:"rules,omitempty"`
	LoadedAt       *time.Time       `json:"loaded_at,omitempty"`
	Requests       map[string]int64 `json:"requests"`
	Shed           int64            `json:"shed"`
	InFlight       int64            `json:"in_flight"`
	Tuples         int64            `json:"tuples"`
	TuplesRepaired int64            `json:"tuples_repaired"`
	RulesFired     int64            `json:"rules_fired"`
	OOVCells       int64            `json:"oov_cells"`
	Reloads        int64            `json:"reloads"`
	ReloadFailures int64            `json:"reload_failures"`
	LatencyP50Ms   float64          `json:"latency_p50_ms"`
	LatencyP95Ms   float64          `json:"latency_p95_ms"`
	LatencyP99Ms   float64          `json:"latency_p99_ms"`
}

func (s *Server) handleServerStats(w http.ResponseWriter, r *http.Request, eng *engine) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	resp := serverStatsResponse{
		RequestID:      w.Header().Get(RequestIDHeader),
		Requests:       make(map[string]int64, len(s.m.requests)),
		Shed:           s.m.shed.Load(),
		InFlight:       s.m.inflight.Load(),
		Tuples:         s.m.tuples.Load(),
		TuplesRepaired: s.m.repaired.Load(),
		RulesFired:     s.m.rulesFired.Load(),
		OOVCells:       s.m.oovCells.Load(),
		Reloads:        s.m.reloads.Load(),
		ReloadFailures: s.m.reloadFail.Load(),
		LatencyP50Ms:   s.m.latency.Quantile(0.50) * 1000,
		LatencyP95Ms:   s.m.latency.Quantile(0.95) * 1000,
		LatencyP99Ms:   s.m.latency.Quantile(0.99) * 1000,
	}
	if eng != nil {
		resp.RulesetVersion, resp.RulesetHash = eng.version, eng.hash
		resp.Rules, resp.LoadedAt = eng.rep.Ruleset().Len(), &eng.loadedAt
	}
	for ep, c := range s.m.requests {
		resp.Requests[ep] = c.Load()
	}
	writeJSON(w, resp)
}
