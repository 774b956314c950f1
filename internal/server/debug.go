package server

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"fixrule/internal/trace"
)

// This file is the live-diagnostics surface: GET /debug/traces lists the
// recently completed (sampled or errored) request traces the tracer's ring
// retains, GET /debug/traces/{id} drills into one trace's span tree with
// the chase steps decoded to the Explain vocabulary, and — only when the
// operator opts in — /debug/pprof/ exposes the runtime profiles.

// traceSummary is one row of the /debug/traces listing.
type traceSummary struct {
	TraceID    string  `json:"trace_id"`
	RequestID  string  `json:"request_id,omitempty"`
	Endpoint   string  `json:"endpoint"`
	Start      string  `json:"start"`
	DurationMs float64 `json:"duration_ms"`
	Status     string  `json:"status,omitempty"`
	Error      string  `json:"error,omitempty"`
	Spans      int     `json:"spans"`
	Events     int     `json:"events"`
}

// spanJSON is one span of a /debug/traces/{id} drill-down. Offsets are
// relative to the trace start, so the tree reads as a waterfall.
type spanJSON struct {
	SpanID     string        `json:"span_id"`
	ParentID   string        `json:"parent_id,omitempty"`
	Name       string        `json:"name"`
	OffsetMs   float64       `json:"offset_ms"`
	DurationMs float64       `json:"duration_ms"`
	Attrs      []trace.Attr  `json:"attrs,omitempty"`
	Events     []trace.Event `json:"events,omitempty"`
	Error      string        `json:"error,omitempty"`
}

type traceDetail struct {
	TraceID       string     `json:"trace_id"`
	RequestID     string     `json:"request_id,omitempty"`
	Start         string     `json:"start"`
	DurationMs    float64    `json:"duration_ms"`
	Sampled       bool       `json:"sampled"`
	DroppedSpans  int        `json:"dropped_spans,omitempty"`
	DroppedEvents int        `json:"dropped_events,omitempty"`
	Spans         []spanJSON `json:"spans"`
}

// rootAttr pulls one attribute off a trace's root span.
func rootAttr(tr *trace.Trace, key string) string {
	root := tr.Root()
	if root == nil {
		return ""
	}
	for _, a := range root.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// handleTraces serves GET /debug/traces and /debug/traces/{id} over every
// retained trace.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request, _ *engine) {
	s.serveTraces(w, r, strings.TrimPrefix(r.URL.Path, "/debug/traces"), "")
}

// serveTraces answers GET {prefix}/debug/traces{rest}: the listing for an
// empty rest, else the trace rest names. A non-empty tenant scopes both
// views to that tenant's traces.
func (s *Server) serveTraces(w http.ResponseWriter, r *http.Request, rest, tenant string) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
	} else if id, ok := strings.CutPrefix(rest, "/"); ok {
		s.writeTraceDetail(w, id, tenant)
	} else {
		s.writeTraceList(w, r, tenant)
	}
}

// writeTraceList renders the trace listing. A non-empty tenant restricts
// the view to traces whose root span carries that tenant attribute —
// /t/{x}/debug/traces can never see another tenant's requests (or
// untenanted ones).
func (s *Server) writeTraceList(w http.ResponseWriter, r *http.Request, tenant string) {
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest, codeBadFormat, "limit must be a non-negative integer")
			return
		}
		limit = n
	}
	traces := s.tracer.Traces()
	if tenant != "" {
		kept := traces[:0:0]
		for _, tr := range traces {
			if rootAttr(tr, "tenant") == tenant {
				kept = append(kept, tr)
			}
		}
		traces = kept
	}
	if limit > 0 && len(traces) > limit {
		traces = traces[:limit]
	}
	out := make([]traceSummary, 0, len(traces))
	for _, tr := range traces {
		sum := traceSummary{
			TraceID:    tr.ID().String(),
			RequestID:  rootAttr(tr, "request_id"),
			Endpoint:   rootAttr(tr, "endpoint"),
			Start:      tr.Start().Format(time.RFC3339Nano),
			DurationMs: float64(tr.Duration().Microseconds()) / 1000,
			Status:     rootAttr(tr, "status"),
		}
		for _, sp := range tr.Spans() {
			sum.Spans++
			sum.Events += len(sp.Events)
			if sp.Error != "" && sum.Error == "" {
				sum.Error = sp.Error
			}
		}
		out = append(out, sum)
	}
	writeJSON(w, struct {
		Traces []traceSummary `json:"traces"`
	}{Traces: out})
}

// writeTraceDetail renders one trace's span tree. A non-empty tenant
// refuses traces that do not belong to that tenant with the same 404 a
// missing trace gets, so the response does not even confirm the trace ID
// exists for someone else.
func (s *Server) writeTraceDetail(w http.ResponseWriter, id, tenant string) {
	if id == "" || strings.Contains(id, "/") {
		s.writeError(w, http.StatusNotFound, codeTraceNotFound, "no such trace")
		return
	}
	tr := s.tracer.Lookup(id)
	if tr == nil || (tenant != "" && rootAttr(tr, "tenant") != tenant) {
		s.writeError(w, http.StatusNotFound, codeTraceNotFound,
			"trace not retained (unsampled, expired from the ring, or never existed)")
		return
	}
	droppedSpans, droppedEvents := tr.Dropped()
	detail := traceDetail{
		TraceID:       tr.ID().String(),
		RequestID:     rootAttr(tr, "request_id"),
		Start:         tr.Start().Format(time.RFC3339Nano),
		DurationMs:    float64(tr.Duration().Microseconds()) / 1000,
		Sampled:       tr.Sampled(),
		DroppedSpans:  droppedSpans,
		DroppedEvents: droppedEvents,
	}
	start := tr.Start()
	for _, sp := range tr.Spans() {
		sj := spanJSON{
			SpanID:     sp.ID.String(),
			Name:       sp.Name,
			OffsetMs:   float64(sp.Start.Sub(start).Microseconds()) / 1000,
			DurationMs: float64(sp.Duration.Microseconds()) / 1000,
			Attrs:      sp.Attrs,
			Events:     sp.Events,
			Error:      sp.Error,
		}
		if !sp.Parent.IsZero() {
			sj.ParentID = sp.Parent.String()
		}
		detail.Spans = append(detail.Spans, sj)
	}
	writeJSON(w, detail)
}

// mountPprof exposes the runtime profiles. The handlers bypass s.wrap on
// purpose: profiling must work while the request path is saturated or
// misbehaving, so it takes no semaphore, no body cap, and no deadline (a
// 30s CPU profile would trip the repair timeout).
func (s *Server) mountPprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
