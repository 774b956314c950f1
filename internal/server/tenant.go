package server

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"fixrule/internal/core"
	"fixrule/internal/obs"
	"fixrule/internal/repair"
)

// This file holds the serving scope and the tenant registry. A scope is
// one served ruleset: the engine requests snapshot, the loader that
// replaces it, and its admission quota. The standalone default ruleset is
// one scope (Server.def, nil on a tenants-only node); each tenant is
// another. (*scope).reload is the one install path, and it installs a
// ruleset only after NewRepairerChecked accepts it: the paper gives a
// unique fix only for a consistent Σ (Theorem 1). Reloads of one scope are
// serialised, so an older load never lands on top of a newer one.
//
// Tenant scopes load on first use and are cached in an LRU bounded by an
// entry count and an estimated memory budget; the default scope is never
// evicted. Cold loads are singleflighted, and one that a reload or an
// invalidation overtook answers only the requests that triggered it.
// Per-tenant versions survive eviction, so the X-Fixserve-Ruleset-Version
// header stays monotonic per tenant.

// TenantOptions enables and tunes multi-tenant serving. The zero value of
// every limit selects a production-safe default; Loader is required.
type TenantOptions struct {
	// Loader supplies a tenant's ruleset. Return an error wrapping
	// fs.ErrNotExist for unknown tenants (mapped to 404); any other error
	// is mapped to 500 with the detail kept server-side.
	Loader func(tenant string) (*core.Ruleset, error)
	// MaxEngines bounds the number of cached compiled engines; <= 0
	// selects 64. The least recently used tenant is evicted first.
	MaxEngines int
	// MaxEngineBytes bounds the estimated memory held by cached engines;
	// <= 0 selects 256 MiB. A single engine larger than the budget is
	// still served (the cache never refuses a tenant), but it is the only
	// resident entry while in use.
	MaxEngineBytes int64
	// MaxInFlight bounds concurrently served repair requests per tenant;
	// excess requests are shed with 503 tenant_overloaded. <= 0 selects 16.
	MaxInFlight int
	// MaxBodyBytes caps request bodies on tenant routes; <= 0 inherits the
	// server-wide Config.MaxBodyBytes.
	MaxBodyBytes int64
}

func (o TenantOptions) withDefaults(serverBody int64) TenantOptions {
	if o.MaxEngines <= 0 {
		o.MaxEngines = 64
	}
	if o.MaxEngineBytes <= 0 {
		o.MaxEngineBytes = 256 << 20
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 16
	}
	if o.MaxBodyBytes <= 0 || o.MaxBodyBytes > serverBody {
		o.MaxBodyBytes = serverBody
	}
	return o
}

// engine is one immutable (repairer, version) pair. Handlers snapshot the
// engine once per request, so a concurrent reload never mixes rulesets
// within a response.
type engine struct {
	rep      *repair.Repairer
	version  int64
	hash     string
	loadedAt time.Time
	sc       *scope // the scope that installed it
	// tm is the tenant's metric series, fed alongside the service-wide
	// ones; nil on the default scope's engines.
	tm *tenantMetrics
}

func newEngine(sc *scope, rep *repair.Repairer, version int64) *engine {
	return &engine{rep: rep, version: version, hash: RulesetHash(rep.Ruleset()), loadedAt: time.Now(), sc: sc}
}

// info describes the engine as a reload reports it.
func (e *engine) info() RulesetInfo {
	return RulesetInfo{Version: e.version, Hash: e.hash, Rules: e.rep.Ruleset().Len()}
}

// scope is one served ruleset. It stays valid after eviction: in-flight
// requests keep using their engine snapshot and release the quota slot
// they hold.
type scope struct {
	name    string                        // tenant ID; "" for the default scope
	load    func() (*core.Ruleset, error) // nil disables reload (ErrNoLoader)
	reg     *tenantRegistry               // numbers a tenant scope's versions; nil on the default scope
	gauge   *obs.Gauge                    // the default scope's version gauge; the registry sets tenants' when it caches them
	sem     chan struct{}                 // per-tenant quota; nil on the default scope
	maxBody int64                         // request body cap
	eng     atomic.Pointer[engine]
	loadMu  sync.Mutex // serialises reload

	// Registry bookkeeping, guarded by tenantRegistry.mu.
	elem    *list.Element // LRU position; nil until the scope is cached
	cost    int64         // estimated engine bytes
	reloads int           // reloads running on the scope
}

// reload loads the scope's ruleset, refuses it unless NewRepairerChecked
// accepts it, and swaps the new engine in. It is the one install path of
// the server. A failed reload leaves the served engine untouched.
func (sc *scope) reload() (*engine, error) {
	if sc.load == nil {
		return nil, ErrNoLoader
	}
	sc.loadMu.Lock()
	defer sc.loadMu.Unlock()
	rs, err := sc.load()
	if err != nil {
		return nil, &ReloadError{Stage: "load", Err: err}
	}
	rep, err := repair.NewRepairerChecked(rs)
	if err != nil {
		return nil, &ReloadError{Stage: "consistency", Err: err}
	}
	var eng *engine
	if sc.reg != nil {
		version, tm := sc.reg.nextVersion(sc.name)
		eng = newEngine(sc, rep, version)
		eng.tm = tm
	} else {
		eng = newEngine(sc, rep, sc.eng.Load().version+1)
		sc.gauge.Set(eng.version)
	}
	sc.eng.Store(eng)
	return eng, nil
}

// tenantMetrics are one tenant's metric series, all carrying a tenant
// label, plus its version sequence. The obs registry deduplicates by
// (name, labels), and the tenant registry keeps this struct across
// eviction, so an evicted and re-admitted tenant resolves back to the same
// monotonic counters and continues its versions.
type tenantMetrics struct {
	outcomeSeries // its quality tracker serves /t/{tenant}/quality
	requests      *obs.Counter
	shed          *obs.Counter
	reloads       *obs.Counter
	version       *obs.Gauge
	seq           int64 // last version handed out, guarded by tenantRegistry.mu
}

func newTenantMetrics(reg *obs.Registry, name string, qcfg qualityConfig) *tenantMetrics {
	l := obs.Labels("tenant", name)
	return &tenantMetrics{
		outcomeSeries: outcomeSeries{
			tuples: reg.Counter("fixserve_tenant_tuples_total",
				"Tuples processed by a tenant's repair endpoints.", l),
			repaired: reg.Counter("fixserve_tenant_tuples_repaired_total",
				"Tuples changed by at least one rule, by tenant.", l),
			rulesFired: reg.Counter("fixserve_tenant_rules_fired_total",
				"Rule applications (repair steps), by tenant.", l),
			oovCells: reg.Counter("fixserve_tenant_oov_cells_total",
				"Input cells outside the tenant ruleset vocabulary.", l),
			changed: newAttrCounters(reg, "fixserve_tenant_cells_changed_total",
				"Cell writes by repairs, by tenant and target attribute.", "tenant", name),
			oov: newAttrCounters(reg, "fixserve_tenant_cells_oov_total",
				"Input cells outside the ruleset vocabulary, by tenant and attribute.", "tenant", name),
			quality: newQualityTracker(qcfg),
		},
		requests: reg.Counter("fixserve_tenant_requests_total",
			"Requests served on tenant routes, by tenant.", l),
		shed: reg.Counter("fixserve_tenant_shed_total",
			"Tenant requests shed with 503 because the per-tenant in-flight quota was reached.", l),
		reloads: reg.Counter("fixserve_tenant_reloads_total",
			"Successful per-tenant ruleset reloads.", l),
		version: reg.Gauge("fixserve_tenant_ruleset_version",
			"Served ruleset version, by tenant; survives eviction.", l),
	}
}

// flight is one in-progress cold load. Waiters block on done and read sc
// and err afterwards.
type flight struct {
	done  chan struct{}
	sc    *scope
	epoch uint64 // registry epoch when the load began
	err   error
}

// tenantRegistry is the LRU of cached tenant scopes plus the cold-load
// singleflight and the per-tenant state that survives eviction.
type tenantRegistry struct {
	opts TenantOptions
	reg  *obs.Registry
	qcfg qualityConfig

	mu      sync.Mutex
	entries map[string]*scope // cached scopes, plus scopes a reload is loading into
	lru     *list.List        // cached scopes; front = most recently used
	mem     int64             // sum of cached scope costs
	flights map[string]*flight
	metrics map[string]*tenantMetrics // survives eviction
	epoch   uint64                    // bumped by every invalidation

	engines   *obs.Gauge
	bytes     *obs.Gauge
	evictions *obs.Counter
	compiles  *obs.Counter
}

func newTenantRegistry(opts TenantOptions, reg *obs.Registry, qcfg qualityConfig) *tenantRegistry {
	return &tenantRegistry{
		opts:    opts,
		reg:     reg,
		qcfg:    qcfg,
		entries: make(map[string]*scope),
		lru:     list.New(),
		flights: make(map[string]*flight),
		metrics: make(map[string]*tenantMetrics),
		engines: reg.Gauge("fixserve_tenant_engines",
			"Compiled tenant engines resident in the LRU cache.", ""),
		bytes: reg.Gauge("fixserve_tenant_engine_bytes",
			"Estimated memory held by cached tenant engines.", ""),
		evictions: reg.Counter("fixserve_tenant_evictions_total",
			"Tenant engines evicted from the LRU cache.", ""),
		compiles: reg.Counter("fixserve_tenant_compiles_total",
			"Tenant ruleset compilations (cold loads and reloads).", ""),
	}
}

// engineCost estimates the resident bytes of one compiled engine: a fixed
// per-engine overhead (inverted lists, dictionaries, scratch pools) plus a
// per-pattern-cell contribution. The estimate only has to be consistent
// and monotone in ruleset size for the LRU budget to be meaningful.
func engineCost(rep *repair.Repairer) int64 {
	return 16<<10 + int64(rep.Ruleset().Size())*48
}

// newScope builds an empty scope for one tenant.
func (r *tenantRegistry) newScope(name string) *scope {
	return &scope{
		name:    name,
		load:    func() (*core.Ruleset, error) { return r.opts.Loader(name) },
		reg:     r,
		sem:     make(chan struct{}, r.opts.MaxInFlight),
		maxBody: r.opts.MaxBodyBytes,
	}
}

// nextVersion hands a freshly checked tenant engine the next version of
// the tenant's sequence and the tenant's metric series, minting both on
// the tenant's first successful load (never for an unknown tenant).
func (r *tenantRegistry) nextVersion(name string) (int64, *tenantMetrics) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tm := r.metrics[name]
	if tm == nil {
		tm = newTenantMetrics(r.reg, name, r.qcfg)
		r.metrics[name] = tm
	}
	r.compiles.Inc()
	tm.seq++
	return tm.seq, tm
}

// get resolves a tenant's scope, loading it on a cold hit. Exactly one
// goroutine runs the loader per cold tenant; the rest wait on its flight
// and share the result (including a load error — the next request after a
// failed flight retries).
func (r *tenantRegistry) get(name string) (*scope, error) {
	r.mu.Lock()
	if sc := r.entries[name]; sc != nil && sc.elem != nil {
		r.lru.MoveToFront(sc.elem)
		r.mu.Unlock()
		return sc, nil
	}
	if f := r.flights[name]; f != nil {
		r.mu.Unlock()
		<-f.done
		return f.sc, f.err
	}
	f := &flight{done: make(chan struct{}), sc: r.newScope(name), epoch: r.epoch}
	r.flights[name] = f
	r.mu.Unlock()

	_, f.err = f.sc.reload()
	r.mu.Lock()
	delete(r.flights, name)
	switch cur := r.entries[name]; {
	case cur != nil && cur.elem != nil:
		// A reload cached the tenant while this flight was loading.
		// Caching the flight's engine would silently revert that hot
		// deploy; serve the cached scope instead.
		r.lru.MoveToFront(cur.elem)
		f.sc, f.err = cur, nil
	case f.err == nil && cur == nil && f.epoch == r.epoch:
		r.cacheLocked(f.sc)
	}
	// Otherwise a reload is still loading the tenant, or an invalidation
	// ran after this load began and its rules may be stale: the engine
	// answers the requests that triggered it and is not cached.
	r.mu.Unlock()
	close(f.done)
	return f.sc, f.err
}

// reload is the per-tenant hot deploy: it reloads the tenant's cached
// scope, or — for a tenant not cached — a scope that every concurrent
// reload of that tenant shares, and caches the result. Either way reloads
// of one tenant run one at a time.
func (r *tenantRegistry) reload(name string) (RulesetInfo, error) {
	r.mu.Lock()
	sc := r.entries[name]
	if sc == nil {
		sc = r.newScope(name)
		r.entries[name] = sc
	}
	sc.reloads++
	r.mu.Unlock()

	eng, err := sc.reload()

	r.mu.Lock()
	defer r.mu.Unlock()
	sc.reloads--
	switch {
	case r.entries[name] != sc:
		// Evicted or invalidated mid-load: the next request loads afresh.
	case err == nil:
		r.cacheLocked(sc)
	case sc.elem == nil && sc.reloads == 0:
		delete(r.entries, name) // the tenant never loaded: forget it
	}
	if err != nil {
		return RulesetInfo{}, err
	}
	eng.tm.reloads.Inc()
	return eng.info(), nil
}

// cacheLocked makes sc its tenant's cached scope (the caller has checked
// that no other scope holds the slot), re-costs it from its current
// engine, and evicts over-budget scopes from the cold end. sc itself is
// never evicted, so a tenant larger than the whole memory budget still
// serves (alone).
func (r *tenantRegistry) cacheLocked(sc *scope) {
	if sc.elem == nil {
		r.entries[sc.name] = sc
		sc.elem = r.lru.PushFront(sc)
	} else {
		r.lru.MoveToFront(sc.elem)
	}
	eng := sc.eng.Load()
	cost := engineCost(eng.rep)
	r.mem += cost - sc.cost
	sc.cost = cost
	eng.tm.version.Set(eng.version)
	for r.lru.Len() > 1 && (r.lru.Len() > r.opts.MaxEngines || r.mem > r.opts.MaxEngineBytes) {
		back := r.lru.Back()
		victim := back.Value.(*scope)
		if victim == sc {
			// sc drifted to the back (single-entry case is excluded by
			// the loop guard); nothing else can be evicted before it.
			break
		}
		r.lru.Remove(back)
		delete(r.entries, victim.name)
		r.mem -= victim.cost
		r.evictions.Inc()
	}
	r.engines.Set(int64(r.lru.Len()))
	r.bytes.Set(r.mem)
}

// invalidateAll drops every cached scope; the next request per tenant
// reloads through the loader, and a load already running when the
// invalidation lands is not cached. Versions survive, so
// reloads-by-invalidation still bump the per-tenant version header.
// Returns the number of scopes dropped.
func (r *tenantRegistry) invalidateAll() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.lru.Len()
	r.epoch++
	r.entries = make(map[string]*scope)
	r.lru.Init()
	r.mem = 0
	r.engines.Set(0)
	r.bytes.Set(0)
	return n
}

// cached reports whether a tenant's scope is in the LRU.
func (r *tenantRegistry) cached(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	sc := r.entries[name]
	return sc != nil && sc.elem != nil
}

func (r *tenantRegistry) residentCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

func (r *tenantRegistry) residentBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mem
}
