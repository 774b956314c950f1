package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"fixrule/internal/trace"
)

// This file is the tenant-scoped HTTP surface: every route under
// /t/{tenant}/ resolves the tenant's scope through the registry (LRU +
// singleflight) and then takes the same admission path (serveScope) into
// the same handlers the single-tenant routes use, bound to the tenant's
// engine snapshot — which is what makes multi-tenant output byte-identical
// to a single-tenant server loaded with the same ruleset.
//
//	POST /t/{x}/repair        JSON tuples → repaired tuples + steps
//	POST /t/{x}/repair/csv    CSV / x-fcol stream → repaired stream
//	POST /t/{x}/explain       one tuple → repair provenance
//	GET  /t/{x}/rules         the tenant's ruleset (DSL or ?format=json)
//	GET  /t/{x}/rules/stats   rule statistics
//	GET  /t/{x}/stats         the tenant's own counters, never another's
//	GET  /t/{x}/quality       the tenant's windowed quality report
//	POST /t/{x}/reload        per-tenant hot deploy through the loader
//	GET  /t/{x}/debug/traces  the tenant's retained traces; /{id} drills in

// TenantHeader names the tenant a response was served for.
const TenantHeader = "X-Fixserve-Tenant"

// maxTenantIDLen bounds tenant identifiers.
const maxTenantIDLen = 64

// ValidTenantID reports whether id is a well-formed tenant identifier:
// 1–64 characters of [a-z0-9_-], starting with a letter or digit. The
// alphabet deliberately excludes '/', '.', '%' and upper case, so a tenant
// ID can never traverse paths, alias another route, or collide with a
// sibling on a case-insensitive file system.
func ValidTenantID(id string) bool {
	if len(id) == 0 || len(id) > maxTenantIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '-' || c == '_':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// splitTenantPath splits "/t/{tenant}{rest}" into the raw tenant segment
// and the remainder ("/repair", "/debug/traces/abc", or "" for a bare
// "/t/{tenant}").
func splitTenantPath(path string) (tenant, rest string) {
	p := strings.TrimPrefix(path, "/t/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i], p[i:]
	}
	return p, ""
}

// tenantRoute is one route under /t/{tenant}/: its metric endpoint
// label, whether it passes the admission limits (the same set as its
// single-tenant counterpart), and its handler. The reload and trace routes
// have no handler: they run before, and without, the tenant's scope.
type tenantRoute struct {
	label   string
	limited bool
	h       handlerFunc
}

// handleTenant is the tenant router: it validates the tenant ID, resolves
// the tenant's scope (loading it under singleflight on a cold hit), and
// hands the request to serveScope.
func (s *Server) handleTenant(w http.ResponseWriter, r *http.Request) {
	tenantID, rest := splitTenantPath(r.URL.Path)
	route := rest
	if strings.HasPrefix(rest, "/debug/traces/") {
		route = "/debug/traces"
	}
	rt, known := s.tenantRoutes[route]
	if !known {
		rt.label = "/t/{tenant}"
	}
	c := s.begin(rt.label, rt.limited, w, r)
	defer s.end(c)

	if !ValidTenantID(tenantID) {
		s.writeError(c.sw, http.StatusBadRequest, codeBadTenant,
			"tenant id must be 1-64 chars of [a-z0-9_-], starting with a letter or digit")
		return
	}
	c.sw.Header().Set(TenantHeader, tenantID)
	c.root.SetAttr(trace.String("tenant", tenantID))
	switch {
	case !known:
		s.writeError(c.sw, http.StatusNotFound, codeUnknownRoute,
			"unknown tenant route")
	case route == "/debug/traces":
		// The trace views read only the tracer's ring — no engine, no loader.
		s.serveTraces(c.sw, r, strings.TrimPrefix(rest, "/debug/traces"), tenantID)
	case route == "/reload":
		// A reload always goes through the loader, cached or not: it is
		// the per-tenant hot deploy.
		s.handleTenantReload(c.sw, r, tenantID)
	default:
		sc, err := s.tenants.get(tenantID)
		if err != nil {
			s.loadError(c.sw, tenantID, err)
			return
		}
		s.serveScope(c, r, sc, rt.limited, rt.h)
	}
}

// handleTenantReload is POST /t/{x}/reload: fetch the tenant's ruleset
// through the loader, consistency-check it, and swap it in atomically.
func (s *Server) handleTenantReload(w http.ResponseWriter, r *http.Request, tenantID string) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, http.MethodPost)
		return
	}
	info, err := s.tenants.reload(tenantID)
	s.countReload(err)
	if err != nil {
		s.loadError(w, tenantID, err)
		return
	}
	w.Header().Set(VersionHeader, strconv.FormatInt(info.Version, 10))
	w.Header().Set(HashHeader, info.Hash)
	s.cfg.Logger.Info("tenant ruleset reloaded",
		"tenant", tenantID, "version", info.Version, "hash", info.Hash, "rules", info.Rules)
	writeJSON(w, struct {
		Tenant string `json:"tenant"`
		RulesetInfo
	}{Tenant: tenantID, RulesetInfo: info})
}

// tenantStatsResponse is the /t/{x}/stats payload: the tenant's own
// serving state and counters, and nothing of any other tenant's.
type tenantStatsResponse struct {
	Tenant         string    `json:"tenant"`
	RequestID      string    `json:"request_id,omitempty"`
	RulesetVersion int64     `json:"ruleset_version"`
	RulesetHash    string    `json:"ruleset_hash"`
	Rules          int       `json:"rules"`
	LoadedAt       time.Time `json:"loaded_at"`
	Cached         bool      `json:"cached"`
	InFlight       int       `json:"in_flight"`
	Requests       int64     `json:"requests"`
	Shed           int64     `json:"shed"`
	Tuples         int64     `json:"tuples"`
	TuplesRepaired int64     `json:"tuples_repaired"`
	RulesFired     int64     `json:"rules_fired"`
	OOVCells       int64     `json:"oov_cells"`
	Reloads        int64     `json:"reloads"`
}

func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request, eng *engine) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, http.MethodGet)
		return
	}
	sc, tm := eng.sc, eng.tm
	writeJSON(w, tenantStatsResponse{
		Tenant:         sc.name,
		RequestID:      w.Header().Get(RequestIDHeader),
		RulesetVersion: eng.version,
		RulesetHash:    eng.hash,
		Rules:          eng.rep.Ruleset().Len(),
		LoadedAt:       eng.loadedAt,
		Cached:         s.tenants.cached(sc.name),
		InFlight:       len(sc.sem),
		Requests:       tm.requests.Load(),
		Shed:           tm.shed.Load(),
		Tuples:         tm.tuples.Load(),
		TuplesRepaired: tm.repaired.Load(),
		RulesFired:     tm.rulesFired.Load(),
		OOVCells:       tm.oovCells.Load(),
		Reloads:        tm.reloads.Load(),
	})
}

// InvalidateTenants drops every cached tenant engine (fixserve wires this
// to SIGHUP in multi-tenant mode); the next request per tenant recompiles
// through the loader, and a load already running when it lands is not
// cached. Returns the number of engines dropped. A server without tenant
// serving returns 0.
func (s *Server) InvalidateTenants() int {
	if s.tenants == nil {
		return 0
	}
	return s.tenants.invalidateAll()
}

// TenantEnabled reports whether this server routes /t/{tenant}/ requests.
func (s *Server) TenantEnabled() bool { return s.tenants != nil }
