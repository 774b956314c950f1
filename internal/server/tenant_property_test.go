package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fixrule/internal/core"
	"fixrule/internal/obs"
)

// This file holds the property tests backing the tenant registry's three
// core claims: singleflight compiles exactly once per cold tenant, the LRU
// never exceeds either budget (and re-admits evicted tenants correctly),
// and per-tenant versions are monotonic across eviction and reload.

func newBareRegistry(opts TenantOptions) *tenantRegistry {
	return newTenantRegistry(opts.withDefaults(32<<20), obs.NewRegistry(), resolveQualityConfig(Config{}))
}

// TestSingleflightCompilesOnce: N concurrent cold requests for one tenant
// run the loader exactly once, and every caller gets the same entry.
func TestSingleflightCompilesOnce(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{"acme": travelRuleset("Beijing")})
	loader.delay = 20 * time.Millisecond // widen the window all callers pile into
	reg := newBareRegistry(TenantOptions{Loader: loader.load})

	const callers = 32
	var wg sync.WaitGroup
	entries := make([]*scope, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			entries[i], errs[i] = reg.get("acme")
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if entries[i] != entries[0] {
			t.Fatalf("caller %d got a different entry", i)
		}
	}
	if n := loader.callCount("acme"); n != 1 {
		t.Errorf("loader calls = %d, want exactly 1", n)
	}
	if v := entries[0].eng.Load().version; v != 1 {
		t.Errorf("version = %d, want 1", v)
	}

	// After invalidation the next wave compiles exactly once more.
	reg.invalidateAll()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg.get("acme")
		}()
	}
	wg.Wait()
	if n := loader.callCount("acme"); n != 2 {
		t.Errorf("loader calls after invalidation = %d, want 2", n)
	}
}

// TestSingleflightSharesError: concurrent cold requests for a failing
// tenant share one loader call and one error; the next request afterwards
// retries.
func TestSingleflightSharesError(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{}) // nothing provisioned
	loader.delay = 10 * time.Millisecond
	reg := newBareRegistry(TenantOptions{Loader: loader.load})

	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = reg.get("ghost")
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d succeeded for an unprovisioned tenant", i)
		}
	}
	if n := loader.callCount("ghost"); n != 1 {
		t.Errorf("loader calls = %d, want 1 (error shared by the flight)", n)
	}
	// A failed flight is not cached: the next request retries the loader.
	if _, err := reg.get("ghost"); err == nil {
		t.Fatal("retry succeeded unexpectedly")
	}
	if n := loader.callCount("ghost"); n != 2 {
		t.Errorf("loader calls after retry = %d, want 2", n)
	}
}

// TestLRUEntryBudget: the resident count never exceeds MaxEngines no
// matter the access pattern, evictions happen cold-end first, and an
// evicted tenant re-admits with its version sequence intact.
func TestLRUEntryBudget(t *testing.T) {
	sets := make(map[string]*core.Ruleset)
	for i := 0; i < 10; i++ {
		sets[fmt.Sprintf("t%d", i)] = travelRuleset("Beijing")
	}
	loader := newMapLoader(sets)
	reg := newBareRegistry(TenantOptions{Loader: loader.load, MaxEngines: 3})

	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("t%d", i)
		if _, err := reg.get(name); err != nil {
			t.Fatal(err)
		}
		if n := reg.residentCount(); n > 3 {
			t.Fatalf("after admitting %s: resident = %d, exceeds MaxEngines 3", name, n)
		}
	}
	// The three most recent tenants are resident, the oldest are not.
	for _, name := range []string{"t7", "t8", "t9"} {
		if !reg.cached(name) {
			t.Errorf("%s should be resident", name)
		}
	}
	for _, name := range []string{"t0", "t1"} {
		if reg.cached(name) {
			t.Errorf("%s should have been evicted", name)
		}
	}

	// Re-admission: t0 compiles again and continues its version sequence.
	e, err := reg.get("t0")
	if err != nil {
		t.Fatal(err)
	}
	if v := e.eng.Load().version; v != 2 {
		t.Errorf("re-admitted t0 version = %d, want 2 (sequence survives eviction)", v)
	}
	if n := loader.callCount("t0"); n != 2 {
		t.Errorf("t0 loader calls = %d, want 2", n)
	}
	// An LRU touch protects a resident tenant from the next eviction.
	if _, err := reg.get("t8"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.get("t5"); err != nil { // forces one eviction
		t.Fatal(err)
	}
	if !reg.cached("t8") {
		t.Error("recently touched t8 was evicted before colder entries")
	}
}

// TestLRUMemoryBudget: resident bytes never exceed MaxEngineBytes unless
// a single engine alone is larger than the budget — which must still be
// admitted, alone.
func TestLRUMemoryBudget(t *testing.T) {
	sets := make(map[string]*core.Ruleset)
	for i := 0; i < 8; i++ {
		sets[fmt.Sprintf("t%d", i)] = travelRuleset("Beijing")
	}
	loader := newMapLoader(sets)
	// Each test engine costs 16 KiB + size*48; a 40 KiB budget fits two.
	budget := int64(40 << 10)
	reg := newBareRegistry(TenantOptions{Loader: loader.load, MaxEngineBytes: budget})

	for i := 0; i < 8; i++ {
		if _, err := reg.get(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
		mem, n := reg.residentBytes(), reg.residentCount()
		if mem > budget && n > 1 {
			t.Fatalf("resident bytes = %d over budget %d with %d entries", mem, budget, n)
		}
	}

	// A budget smaller than any single engine still serves one tenant.
	tiny := newBareRegistry(TenantOptions{Loader: loader.load, MaxEngineBytes: 1})
	if _, err := tiny.get("t0"); err != nil {
		t.Fatalf("oversized single engine refused: %v", err)
	}
	if n := tiny.residentCount(); n != 1 {
		t.Errorf("oversized-engine registry resident = %d, want 1", n)
	}
	if _, err := tiny.get("t1"); err != nil {
		t.Fatal(err)
	}
	if n := tiny.residentCount(); n != 1 {
		t.Errorf("second oversized engine did not evict the first: resident = %d", n)
	}
	if tiny.cached("t0") || !tiny.cached("t1") {
		t.Error("oversized eviction kept the wrong entry")
	}
}

// TestTenantVersionMonotonic: across get, reload, eviction and
// invalidation, a tenant's version strictly increases and each installed
// engine observes its own version.
func TestTenantVersionMonotonic(t *testing.T) {
	loader := newMapLoader(map[string]*core.Ruleset{
		"acme":  travelRuleset("Beijing"),
		"other": travelRuleset("Ottawa"),
	})
	reg := newBareRegistry(TenantOptions{Loader: loader.load, MaxEngines: 1})

	var last int64
	observe := func(step string, v int64) {
		t.Helper()
		if v <= last {
			t.Fatalf("%s: version %d not greater than previous %d", step, v, last)
		}
		last = v
	}

	e, err := reg.get("acme")
	if err != nil {
		t.Fatal(err)
	}
	observe("cold get", e.eng.Load().version)

	info, err := reg.reload("acme")
	if err != nil {
		t.Fatal(err)
	}
	observe("reload", info.Version)

	// Evict via the sibling (MaxEngines 1), then recompile.
	if _, err := reg.get("other"); err != nil {
		t.Fatal(err)
	}
	if reg.cached("acme") {
		t.Fatal("acme still cached after sibling admission")
	}
	e, err = reg.get("acme")
	if err != nil {
		t.Fatal(err)
	}
	observe("re-admission", e.eng.Load().version)

	reg.invalidateAll()
	e, err = reg.get("acme")
	if err != nil {
		t.Fatal(err)
	}
	observe("post-invalidation", e.eng.Load().version)

	// Reload of an uncached tenant installs and still bumps.
	reg.invalidateAll()
	info, err = reg.reload("acme")
	if err != nil {
		t.Fatal(err)
	}
	observe("uncached reload", info.Version)
	if !reg.cached("acme") {
		t.Error("reload of uncached tenant did not admit it")
	}
}
