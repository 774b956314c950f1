package server

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"strconv"
)

// ErrNoLoader is returned by Reload when the server was built without a
// Config.Loader.
var ErrNoLoader = errors.New("server: no ruleset loader configured")

// ReloadError wraps a reload failure with the stage it failed at, so the
// HTTP layer (and fixserve's SIGHUP handler) can map it to a status
// without parsing error text.
type ReloadError struct {
	// Stage is "load" (the loader failed; cause may reference server-side
	// paths) or "consistency" (the new ruleset has conflicts).
	Stage string
	Err   error
}

func (e *ReloadError) Error() string { return "server: reload " + e.Stage + ": " + e.Err.Error() }
func (e *ReloadError) Unwrap() error { return e.Err }

// RulesetInfo describes the engine installed by a reload.
type RulesetInfo struct {
	Version int64  `json:"ruleset_version"`
	Hash    string `json:"ruleset_hash"`
	Rules   int    `json:"rules"`
}

// Reload fetches a fresh default ruleset through the configured loader,
// verifies its consistency (the precondition both repair algorithms need
// for deterministic fixes), compiles a new repairer, and swaps it in
// atomically. In-flight requests keep the engine they snapshotted and
// finish on the old ruleset; the next request sees the new one. A failed
// reload leaves the served ruleset untouched. Concurrent reloads run one
// at a time, so versions follow loader calls in order.
func (s *Server) Reload() (RulesetInfo, error) {
	if s.def == nil {
		return RulesetInfo{}, ErrNoLoader
	}
	eng, err := s.def.reload()
	s.countReload(err)
	if err != nil {
		return RulesetInfo{}, err
	}
	info := eng.info()
	s.cfg.Logger.Info("ruleset reloaded",
		"version", info.Version, "hash", info.Hash, "rules", info.Rules)
	return info, nil
}

// countReload feeds one reload's outcome into the service-wide reload
// counters; a server without a loader has nothing to count.
func (s *Server) countReload(err error) {
	switch {
	case err == nil:
		s.m.reloads.Inc()
	case !errors.Is(err, ErrNoLoader):
		s.m.reloadFail.Inc()
	}
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request, _ *engine) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, http.MethodPost)
		return
	}
	info, err := s.Reload()
	if err != nil {
		s.loadError(w, "", err)
		return
	}
	writeJSON(w, info)
}

// loadError maps a failed scope load onto the envelope; tenant is "" for
// the default ruleset. An inconsistent ruleset is 422 on both surfaces
// (the conflict text names only the scope's own rules, never paths); a
// missing loader is 501 and an unknown tenant 404. Anything else —
// typically a loader I/O failure whose detail may reference server-side
// paths — is logged and answered 500 with the code alone.
func (s *Server) loadError(w http.ResponseWriter, tenant string, err error) {
	var re *ReloadError
	reqID := w.Header().Get(RequestIDHeader)
	switch {
	case errors.Is(err, ErrNoLoader):
		s.writeError(w, http.StatusNotImplemented, codeReloadDisabled,
			"this server was started without a reloadable rule source")
	case tenant != "" && errors.Is(err, fs.ErrNotExist):
		s.writeError(w, http.StatusNotFound, codeUnknownTenant,
			"unknown tenant "+strconv.Quote(tenant))
	case errors.As(err, &re) && re.Stage == "consistency":
		what := "new ruleset"
		if tenant != "" {
			what = "tenant ruleset"
		}
		s.writeError(w, http.StatusUnprocessableEntity, codeInconsistent,
			//fix:allow errcode: the conflict text names rules from the scope's own ruleset, never paths
			fmt.Sprintf("%s rejected: %v", what, re.Err))
	case tenant == "":
		s.cfg.Logger.Error("reload failed", "request_id", reqID, "err", err)
		s.writeError(w, http.StatusInternalServerError, codeReloadFailed,
			"reloading the ruleset failed; see server log")
	default:
		s.cfg.Logger.Error("tenant load failed", "tenant", tenant, "request_id", reqID, "err", err)
		s.writeError(w, http.StatusInternalServerError, codeTenantLoadFailed,
			"loading the tenant ruleset failed; see server log")
	}
}
