package server

import (
	"net/http"
	"time"

	"fixrule/internal/obs"
	"fixrule/internal/obs/window"
)

// This file is the data-quality telemetry layer: sliding-window rates over
// the same aggregates the cumulative fixserve_* counters track, served as
// GET /quality (and /t/{tenant}/quality) and as fixserve_window_* gauges
// on /metrics. The windows make rule-coverage decay and OOV drift visible
// without diffing scrapes by hand, and the drift verdicts are the signal
// ROADMAP item 2 (online rule discovery) mines for retraining triggers.
//
// Every observation is a per-request aggregate recorded after the repair
// finishes — the per-tuple hot path is never touched, mirroring the
// cumulative counters' discipline. A tenant engine feeds its tenant's
// tracker alongside the service-wide one, so both scopes report exact
// (not sampled) window contents.

// qualityConfig carries the resolved window sizing, clock and thresholds.
type qualityConfig struct {
	live  window.Options
	base  window.Options
	clock window.Clock
	th    window.Thresholds
}

// resolveQualityConfig maps the public Config knobs onto window options.
func resolveQualityConfig(cfg Config) qualityConfig {
	baseSpan := cfg.QualityBaseline
	if baseSpan <= 0 {
		baseSpan = 10 * time.Minute
	}
	clock := cfg.QualityClock
	if clock == nil {
		clock = time.Now
	}
	return qualityConfig{
		live:  window.Options{Span: cfg.QualityWindow, Buckets: cfg.QualityBuckets}.WithDefaults(),
		base:  window.Options{Span: baseSpan, Buckets: cfg.QualityBuckets}.WithDefaults(),
		clock: clock,
		th:    cfg.QualityThresholds,
	}
}

// qualityTracker holds one scope's windowed series (the service, or one
// tenant). All fields are windowed duals — live plus baseline — fed by the
// same call sites that feed the scope's cumulative counters.
type qualityTracker struct {
	cfg      qualityConfig
	requests *window.Dual // data-plane requests (repair, repair/csv, explain)
	errors   *window.Dual // 4xx+5xx on data-plane requests
	shed     *window.Dual // requests shed at this scope's limiter
	rows     *window.Dual // tuples processed
	repaired *window.Dual // tuples changed by >= 1 rule (== rows matched; see below)
	steps    *window.Dual // rule applications
	cells    *window.Dual // input cells seen (rows x arity)
	oov      *window.Dual // input cells outside the ruleset vocabulary

	perRule       *window.Group // rule applications by rule name
	changedByAttr *window.Group // cells changed by target attribute
	oovByAttr     *window.Group // OOV cells by attribute
}

func newQualityTracker(cfg qualityConfig) *qualityTracker {
	d := func() *window.Dual { return window.NewDual(cfg.live, cfg.base) }
	return &qualityTracker{
		cfg:      cfg,
		requests: d(), errors: d(), shed: d(),
		rows: d(), repaired: d(), steps: d(), cells: d(), oov: d(),
		perRule:       window.NewGroup(cfg.live, cfg.base),
		changedByAttr: window.NewGroup(cfg.live, cfg.base),
		oovByAttr:     window.NewGroup(cfg.live, cfg.base),
	}
}

func (q *qualityTracker) now() time.Time { return q.cfg.clock() }

// observeRequest records one finished data-plane request and whether it
// errored (4xx/5xx, sheds included).
func (q *qualityTracker) observeRequest(now time.Time, isError bool) {
	q.requests.Add(now, 1)
	if isError {
		q.errors.Add(now, 1)
	}
}

// observeShed records one request refused at this scope's limiter.
func (q *qualityTracker) observeShed(now time.Time) { q.shed.Add(now, 1) }

// observeTotals records one request's repair aggregates.
func (q *qualityTracker) observeTotals(now time.Time, rows, repaired, steps, oov, cells int64) {
	q.rows.Add(now, rows)
	q.repaired.Add(now, repaired)
	q.steps.Add(now, steps)
	q.oov.Add(now, oov)
	q.cells.Add(now, cells)
}

// observeRule records n applications of one rule.
func (q *qualityTracker) observeRule(now time.Time, rule string, n int64) {
	q.perRule.Get(rule).Add(now, n)
}

// observeAttr records one attribute's changed and OOV cell counts.
func (q *qualityTracker) observeAttr(now time.Time, attr string, changed, oov int64) {
	if changed > 0 {
		q.changedByAttr.Get(attr).Add(now, changed)
	}
	if oov > 0 {
		q.oovByAttr.Get(attr).Add(now, oov)
	}
}

// QualitySnapshot is one window's aggregates and derived rates, the same
// shape for the live and the baseline window.
//
// Rows match three ways exactly, because the repairer's anyRuleMatches
// index is an exact predicate (no false positives): rows_repaired counts
// the rows at least one rule matched AND changed, which for fixing rules
// is the same set as "matched" — a matching rule always has a correction
// to apply — so coverage_rate = rows_repaired / rows and rows_untouched =
// rows - rows_repaired is the rule-coverage gap rule mining should target.
type QualitySnapshot struct {
	Requests         int64 `json:"requests"`
	Errors           int64 `json:"errors"`
	Shed             int64 `json:"shed"`
	Rows             int64 `json:"rows"`
	RowsRepaired     int64 `json:"rows_repaired"`
	RowsUntouched    int64 `json:"rows_untouched"`
	RuleApplications int64 `json:"rule_applications"`
	Cells            int64 `json:"cells"`
	OOVCells         int64 `json:"oov_cells"`

	CoverageRate float64 `json:"coverage_rate"` // rows_repaired / rows
	StepsPerRow  float64 `json:"steps_per_row"` // rule_applications / rows
	OOVRate      float64 `json:"oov_rate"`      // oov_cells / cells
	ErrorRate    float64 `json:"error_rate"`    // errors / requests
	ShedRate     float64 `json:"shed_rate"`     // shed / requests

	PerRule      map[string]int64        `json:"per_rule,omitempty"`
	PerAttribute map[string]AttrActivity `json:"per_attribute,omitempty"`
}

// AttrActivity is one attribute's window activity.
type AttrActivity struct {
	Changed int64 `json:"changed"`
	OOV     int64 `json:"oov"`
}

// DriftSignal compares one rate across the two windows.
type DriftSignal struct {
	Signal   string         `json:"signal"`
	Live     float64        `json:"live"`
	Baseline float64        `json:"baseline"`
	Verdict  window.Verdict `json:"verdict"`
}

// QualityReport is the GET /quality payload. The schema is stable: fields
// are only ever added.
type QualityReport struct {
	Scope           string          `json:"scope"` // "service" or the tenant ID
	GeneratedAt     time.Time       `json:"generated_at"`
	WindowSeconds   float64         `json:"window_seconds"`
	BaselineSeconds float64         `json:"baseline_seconds"`
	Window          QualitySnapshot `json:"window"`
	Baseline        QualitySnapshot `json:"baseline"`
	Drift           []DriftSignal   `json:"drift"`
	Verdict         window.Verdict  `json:"verdict"`
}

// snapshotAt assembles one window's aggregates; live selects which side of
// each dual is read.
func (q *qualityTracker) snapshotAt(now time.Time, live bool) QualitySnapshot {
	at := func(d *window.Dual) int64 {
		if live {
			return d.LiveAt(now)
		}
		return d.BaselineAt(now)
	}
	s := QualitySnapshot{
		Requests:         at(q.requests),
		Errors:           at(q.errors),
		Shed:             at(q.shed),
		Rows:             at(q.rows),
		RowsRepaired:     at(q.repaired),
		RuleApplications: at(q.steps),
		Cells:            at(q.cells),
		OOVCells:         at(q.oov),
	}
	s.RowsUntouched = s.Rows - s.RowsRepaired
	if s.RowsUntouched < 0 {
		// Bucket races can undercount rows relative to repaired; clamp so
		// the report never shows a negative gap.
		s.RowsUntouched = 0
	}
	s.CoverageRate = window.Ratio(s.RowsRepaired, s.Rows)
	s.StepsPerRow = window.Ratio(s.RuleApplications, s.Rows)
	s.OOVRate = window.Ratio(s.OOVCells, s.Cells)
	s.ErrorRate = window.Ratio(s.Errors, s.Requests)
	s.ShedRate = window.Ratio(s.Shed, s.Requests)
	if keys := q.perRule.Keys(); len(keys) > 0 {
		s.PerRule = make(map[string]int64, len(keys))
		for _, k := range keys {
			s.PerRule[k] = at(q.perRule.Get(k))
		}
	}
	changed, oovd := q.changedByAttr.Keys(), q.oovByAttr.Keys()
	if len(changed)+len(oovd) > 0 {
		s.PerAttribute = make(map[string]AttrActivity, len(changed)+len(oovd))
		for _, k := range changed {
			a := s.PerAttribute[k]
			a.Changed = at(q.changedByAttr.Get(k))
			s.PerAttribute[k] = a
		}
		for _, k := range oovd {
			a := s.PerAttribute[k]
			a.OOV = at(q.oovByAttr.Get(k))
			s.PerAttribute[k] = a
		}
	}
	return s
}

// report assembles the full quality report for one scope.
func (q *qualityTracker) report(scope string) QualityReport {
	now := q.now()
	live := q.snapshotAt(now, true)
	base := q.snapshotAt(now, false)
	th := q.cfg.th
	drift := []DriftSignal{
		{Signal: "coverage_rate", Live: live.CoverageRate, Baseline: base.CoverageRate,
			Verdict: th.Classify(live.CoverageRate, base.CoverageRate, live.Rows, base.Rows)},
		{Signal: "oov_rate", Live: live.OOVRate, Baseline: base.OOVRate,
			Verdict: th.Classify(live.OOVRate, base.OOVRate, live.Cells, base.Cells)},
		{Signal: "error_rate", Live: live.ErrorRate, Baseline: base.ErrorRate,
			Verdict: th.Classify(live.ErrorRate, base.ErrorRate, live.Requests, base.Requests)},
		{Signal: "shed_rate", Live: live.ShedRate, Baseline: base.ShedRate,
			Verdict: th.Classify(live.ShedRate, base.ShedRate, live.Requests, base.Requests)},
	}
	verdicts := make([]window.Verdict, len(drift))
	for i, d := range drift {
		verdicts[i] = d.Verdict
	}
	return QualityReport{
		Scope:           scope,
		GeneratedAt:     now,
		WindowSeconds:   q.cfg.live.Span.Seconds(),
		BaselineSeconds: q.cfg.base.Span.Seconds(),
		Window:          live,
		Baseline:        base,
		Drift:           drift,
		Verdict:         window.Worst(verdicts...),
	}
}

// handleQuality serves GET /quality, the service-wide quality report, and
// GET /t/{x}/quality, the tenant's own, scope-stamped with the tenant ID.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request, eng *engine) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	if eng != nil && eng.tm != nil {
		writeJSON(w, eng.tm.quality.report(eng.sc.name))
		return
	}
	writeJSON(w, s.m.quality.report("service"))
}

// windowGauges are the pre-registered fixserve_window_* instruments; a
// scrape hook refreshes them from the service tracker just before every
// exposition write, so /metrics shows the same live window /quality does.
type windowGauges struct {
	requests *obs.Gauge
	errors   *obs.Gauge
	shed     *obs.Gauge
	rows     *obs.Gauge
	repaired *obs.Gauge
	steps    *obs.Gauge
	oov      *obs.Gauge
	coverage *obs.FloatGauge
	oovRate  *obs.FloatGauge
	errRate  *obs.FloatGauge
}

// refreshWindowGauges is the scrape hook: it recomputes the service-scope
// live window and publishes it through the registered gauges, including
// one fixserve_window_rule_applications series per observed rule and one
// fixserve_window_drift_severity series per drift signal.
func (s *Server) refreshWindowGauges() {
	rep := s.m.quality.report("service")
	s.m.win.requests.Set(rep.Window.Requests)
	s.m.win.errors.Set(rep.Window.Errors)
	s.m.win.shed.Set(rep.Window.Shed)
	s.m.win.rows.Set(rep.Window.Rows)
	s.m.win.repaired.Set(rep.Window.RowsRepaired)
	s.m.win.steps.Set(rep.Window.RuleApplications)
	s.m.win.oov.Set(rep.Window.OOVCells)
	s.m.win.coverage.Set(rep.Window.CoverageRate)
	s.m.win.oovRate.Set(rep.Window.OOVRate)
	s.m.win.errRate.Set(rep.Window.ErrorRate)
	for rule, n := range rep.Window.PerRule {
		s.reg.Gauge("fixserve_window_rule_applications",
			"Rule applications in the live quality window, by rule.",
			obs.Labels("rule", rule)).Set(n)
	}
	for _, d := range rep.Drift {
		s.reg.Gauge("fixserve_window_drift_severity",
			"Drift verdict severity by signal: 0 insufficient_data, 1 ok, 2 warn, 3 drift.",
			obs.Labels("signal", d.Signal)).Set(int64(d.Verdict.Severity()))
	}
}
