package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fixrule/internal/core"
)

// This file is the multi-tenant concurrency battery (run it under -race):
// repairs, per-tenant hot reloads, LRU evictions and full invalidations
// all interleave, and every response must still be served wholly by one
// engine snapshot — no torn responses mixing two ruleset versions, no
// request observing a half-swapped engine, no registry invariant broken.

// tenantBatteryBody is a multi-row request where every row repairs to the
// engine's fact, so a torn response (rows from two ruleset versions) is
// detectable in the output bytes.
const tenantBatteryRows = 8

func tenantBatteryJSON() string {
	rows := make([]string, tenantBatteryRows)
	for i := range rows {
		rows[i] = fmt.Sprintf(`["p%d","China","Shanghai","Hongkong","ICDE"]`, i)
	}
	return `{"tuples": [` + strings.Join(rows, ",") + `]}`
}

func tenantBatteryCSV() string {
	var b strings.Builder
	b.WriteString("name,country,capital,city,conf\n")
	for i := 0; i < tenantBatteryRows; i++ {
		fmt.Fprintf(&b, "p%d,China,Shanghai,Hongkong,ICDE\n", i)
	}
	return b.String()
}

// assertWholeVersion fails if a response body carries rows from more than
// one ruleset version (facts are "Beijing" for odd loader generations and
// "Peking" for even ones, so counting both is enough). want is the
// expected fact count for a whole response: rows for CSV, 2×rows for JSON
// (each fact appears in the tuple and again in its step record).
func assertWholeVersion(t *testing.T, kind, body string, want int) {
	t.Helper()
	beijing := strings.Count(body, "Beijing")
	peking := strings.Count(body, "Peking")
	if beijing > 0 && peking > 0 {
		t.Errorf("%s response mixes ruleset versions (%d Beijing, %d Peking):\n%s",
			kind, beijing, peking, body)
	}
	if beijing != want && peking != want {
		t.Errorf("%s response repaired %d+%d, want %d:\n%s",
			kind, beijing, peking, want, body)
	}
}

// runTenantBattery drives the full interleaving against a server built
// with the given stream worker count.
func runTenantBattery(t *testing.T, streamWorkers int) {
	// The loader alternates facts per call, so every installed engine
	// serves exactly one of the two recognizable outputs.
	var generation atomic.Int64
	facts := [2]string{"Beijing", "Peking"}
	loader := func(tenant string) (*core.Ruleset, error) {
		g := generation.Add(1)
		return travelRuleset(facts[g%2]), nil
	}

	cfg := Config{
		Logger:        discardLogger,
		StreamWorkers: streamWorkers,
		MaxInFlight:   64,
	}
	cfg.Tenants = &TenantOptions{
		Loader: loader,
		// Two resident engines over five active tenants forces constant
		// eviction and recompilation under load.
		MaxEngines:  2,
		MaxInFlight: 64,
	}
	rep := mustTestRepairer(t)
	s := NewWithConfig(rep, cfg)
	ts := newLocalServer(t, s)

	tenants := []string{"t0", "t1", "t2", "t3", "t4"}
	jsonBody := tenantBatteryJSON()
	csvBody := tenantBatteryCSV()

	const (
		repairers  = 8
		reloaders  = 3
		iterations = 30
	)
	var wg sync.WaitGroup
	start := make(chan struct{})

	for w := 0; w < repairers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			client := &http.Client{}
			for i := 0; i < iterations; i++ {
				tenant := tenants[(w+i)%len(tenants)]
				if i%2 == 0 {
					resp, err := client.Post(ts.URL+"/t/"+tenant+"/repair",
						"application/json", strings.NewReader(jsonBody))
					if err != nil {
						t.Errorf("repair: %v", err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("repair = %d: %s", resp.StatusCode, body)
						return
					}
					assertWholeVersion(t, "/repair", string(body), 2*tenantBatteryRows)
				} else {
					resp, err := client.Post(ts.URL+"/t/"+tenant+"/repair/csv",
						"text/csv", strings.NewReader(csvBody))
					if err != nil {
						t.Errorf("repair/csv: %v", err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("repair/csv = %d: %s", resp.StatusCode, body)
						return
					}
					assertWholeVersion(t, "/repair/csv", string(body), tenantBatteryRows)
				}
			}
		}(w)
	}

	for w := 0; w < reloaders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < iterations; i++ {
				tenant := tenants[(w*7+i)%len(tenants)]
				resp, err := http.Post(ts.URL+"/t/"+tenant+"/reload", "", nil)
				if err != nil {
					t.Errorf("reload: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("reload = %d", resp.StatusCode)
					return
				}
				// Periodically drop the whole cache, the SIGHUP path.
				if i%10 == 9 {
					s.InvalidateTenants()
				}
			}
		}(w)
	}

	close(start)
	wg.Wait()

	// Registry invariants after the storm: within budget, memory
	// accounting consistent, and versions still monotonic per tenant.
	if n := s.tenants.residentCount(); n > 2 {
		t.Errorf("resident engines = %d, exceeds MaxEngines 2", n)
	}
	if m := s.tenants.residentBytes(); m < 0 {
		t.Errorf("resident bytes = %d, negative", m)
	}
	for _, tenant := range tenants {
		resp, err := http.Get(ts.URL + "/t/" + tenant + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("post-battery /t/%s/stats = %d", tenant, resp.StatusCode)
		}
	}
}

func TestTenantBatterySequentialStream(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: skipping concurrency battery")
	}
	runTenantBattery(t, 1)
}

func TestTenantBatteryParallelStream(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: skipping concurrency battery")
	}
	runTenantBattery(t, 4)
}

// TestTenantReloadDuringColdGet pins the reload-vs-singleflight race
// deterministically: a reload that completes while a cold get() is still
// compiling must win — the cold flight's (older) engine is discarded, the
// hot deploy is not reverted, and the registry never double-inserts the
// tenant (which would orphan an LRU element and let a later eviction
// delete the live entry).
func TestTenantReloadDuringColdGet(t *testing.T) {
	var calls atomic.Int64
	coldEntered := make(chan struct{})
	coldRelease := make(chan struct{})
	loader := func(tenant string) (*core.Ruleset, error) {
		if calls.Add(1) == 1 {
			// The cold get()'s singleflight load: block until released.
			close(coldEntered)
			<-coldRelease
			return travelRuleset("Beijing"), nil
		}
		// The reload's load: returns immediately.
		return travelRuleset("Peking"), nil
	}
	cfg := Config{Logger: discardLogger}
	cfg.Tenants = &TenantOptions{Loader: loader}
	s := NewWithConfig(mustTestRepairer(t), cfg)
	ts := newLocalServer(t, s)

	got := make(chan string, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/t/acme/repair",
			"application/json", strings.NewReader(ianTuple))
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- string(b)
	}()
	<-coldEntered

	// Hot deploy while the cold flight is mid-compile.
	resp, err := http.Post(ts.URL+"/t/acme/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("reload during cold get = %d", resp.StatusCode)
	}
	reloadVersion := resp.Header.Get(VersionHeader)

	// The released cold request serves the reloaded engine, not the stale
	// one its own flight compiled.
	close(coldRelease)
	body := <-got
	if !strings.Contains(body, "Peking") || strings.Contains(body, "Beijing") {
		t.Errorf("cold get raced by reload served the stale engine:\n%s", body)
	}

	// Registry invariants: exactly one resident entry, LRU and entry map
	// 1:1, memory accounting matches the single entry.
	if n := s.tenants.residentCount(); n != 1 {
		t.Errorf("resident engines after race = %d, want 1", n)
	}
	s.tenants.mu.Lock()
	entries, lruLen := len(s.tenants.entries), s.tenants.lru.Len()
	mem := s.tenants.mem
	var sum int64
	for _, e := range s.tenants.entries {
		sum += e.cost
	}
	s.tenants.mu.Unlock()
	if entries != lruLen {
		t.Errorf("entries map has %d tenants but LRU has %d elements", entries, lruLen)
	}
	if mem != sum {
		t.Errorf("accounted bytes %d != sum of entry costs %d", mem, sum)
	}

	// Follow-up requests keep serving the hot deploy at its version.
	resp = postJSON(t, ts.URL+"/t/acme/repair", ianTuple)
	if v := resp.Header.Get(VersionHeader); v != reloadVersion {
		t.Errorf("post-race version header = %q, want reload's %q", v, reloadVersion)
	}
	if body := readBody(t, resp); !strings.Contains(body, "Peking") {
		t.Errorf("post-race repair reverted the hot deploy:\n%s", body)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("loader calls = %d, want 2 (one flight, one reload)", n)
	}
}

// TestTenantEvictionDuringStream pins the in-flight snapshot guarantee
// against eviction specifically: a streaming request's tenant is evicted
// and recompiled mid-stream, and the stream still completes wholly on the
// engine it snapshotted.
func TestTenantEvictionDuringStream(t *testing.T) {
	var generation atomic.Int64
	loader := func(tenant string) (*core.Ruleset, error) {
		if tenant == "victim" {
			// First load "Beijing", every recompile after that "Peking".
			if generation.Add(1) == 1 {
				return travelRuleset("Beijing"), nil
			}
			return travelRuleset("Peking"), nil
		}
		return travelRuleset("Ottawa"), nil
	}
	cfg := Config{Logger: discardLogger}
	cfg.Tenants = &TenantOptions{Loader: loader, MaxEngines: 1}
	s := NewWithConfig(mustTestRepairer(t), cfg)
	ts := newLocalServer(t, s)

	pr, pw := io.Pipe()
	done := make(chan string, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/t/victim/repair/csv", "text/csv", pr)
		if err != nil {
			done <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- string(b)
	}()
	io.WriteString(pw, "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n")

	// Evict the victim by touching another tenant (MaxEngines 1), then
	// recompile the victim on its second generation.
	for _, tenant := range []string{"other", "victim", "other"} {
		resp, err := http.Post(ts.URL+"/t/"+tenant+"/repair",
			"application/json", strings.NewReader(ianTuple))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// The in-flight stream must still be generation 1 end to end.
	io.WriteString(pw, "Amy,China,Hongkong,Paris,VLDB\n")
	pw.Close()
	out := <-done
	if strings.Count(out, "Beijing") != 2 || strings.Contains(out, "Peking") {
		t.Errorf("evicted mid-stream request not served by its snapshot:\n%s", out)
	}
}

// TestTenantReloadsSerialised pins per-tenant reload ordering: while one
// reload's loader call is still running, a second reload of the same
// tenant waits, so the second (newer) load is the one left serving.
// Unserialised, the second reload would install first and the stalled one
// would then land its older rules on top, at the higher version.
func TestTenantReloadsSerialised(t *testing.T) {
	var calls, running, overlaps atomic.Int64
	firstEntered, firstRelease := make(chan struct{}), make(chan struct{})
	secondEntered := make(chan struct{})
	loader := func(tenant string) (*core.Ruleset, error) {
		if running.Add(1) > 1 {
			overlaps.Add(1)
		}
		defer running.Add(-1)
		switch calls.Add(1) {
		case 1:
			close(firstEntered)
			<-firstRelease
			return travelRuleset("Peking"), nil // read before the deploy
		case 2:
			close(secondEntered)
		}
		return travelRuleset("Beijing"), nil
	}
	cfg := Config{Logger: discardLogger}
	cfg.Tenants = &TenantOptions{Loader: loader}
	ts := newLocalServer(t, NewWithConfig(mustTestRepairer(t), cfg))

	reload := func(done chan<- int) {
		resp, err := http.Post(ts.URL+"/t/acme/reload", "", nil)
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}
	first, second := make(chan int, 1), make(chan int, 1)
	go reload(first)
	<-firstEntered
	go reload(second)
	select {
	case <-secondEntered:
		t.Error("second reload called the loader while the first was still loading")
	case <-time.After(100 * time.Millisecond):
	}
	close(firstRelease)
	if code := <-first; code != http.StatusOK {
		t.Errorf("first reload = %d", code)
	}
	if code := <-second; code != http.StatusOK {
		t.Errorf("second reload = %d", code)
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("loader ran concurrently %d times", n)
	}

	resp := postJSON(t, ts.URL+"/t/acme/repair", ianTuple)
	if v := resp.Header.Get(VersionHeader); v != "2" {
		t.Errorf("final version = %q, want 2", v)
	}
	if body := readBody(t, resp); !strings.Contains(body, "Beijing") || strings.Contains(body, "Peking") {
		t.Errorf("tenant serves the older load, not the second reload's rules:\n%s", body)
	}
}

// TestInvalidateDuringColdLoad pins SIGHUP against a cold load: a load
// that began before InvalidateTenants may answer the request that
// triggered it, but must not be cached past the invalidation, so the next
// request loads again and serves the deployed rules.
func TestInvalidateDuringColdLoad(t *testing.T) {
	var calls atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	loader := func(tenant string) (*core.Ruleset, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
			return travelRuleset("Peking"), nil // read before the deploy
		}
		return travelRuleset("Beijing"), nil
	}
	cfg := Config{Logger: discardLogger}
	cfg.Tenants = &TenantOptions{Loader: loader}
	s := NewWithConfig(mustTestRepairer(t), cfg)
	ts := newLocalServer(t, s)

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(ts.URL+"/t/acme/repair", "application/json", strings.NewReader(ianTuple))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered
	if n := s.InvalidateTenants(); n != 0 {
		t.Errorf("InvalidateTenants dropped %d engines, want 0 (nothing cached yet)", n)
	}
	close(release)
	<-done

	resp := postJSON(t, ts.URL+"/t/acme/repair", ianTuple)
	if v := resp.Header.Get(VersionHeader); v != "2" {
		t.Errorf("post-invalidation version = %q, want 2", v)
	}
	if body := readBody(t, resp); !strings.Contains(body, "Beijing") {
		t.Errorf("load begun before the invalidation was cached past it:\n%s", body)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("loader calls = %d, want 2", n)
	}
}
