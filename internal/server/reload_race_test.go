package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fixrule/internal/core"
	"fixrule/internal/repair"
)

// TestReloadRepairRace hammers /repair from N goroutines while M
// goroutines alternate the ruleset through /reload, and asserts every
// single response is consistent with exactly one ruleset version: the
// version header and the repaired value must agree. Reloads are
// serialised by the server, so version n was installed by loader call
// n-1: odd versions (1, 3, ...) serve ruleset A ("Beijing"), even
// versions serve ruleset B ("Peking"). Run under -race in CI.
func TestReloadRepairRace(t *testing.T) {
	rsA, rsB := reloadPair()
	var calls atomic.Int64
	loader := func() (*core.Ruleset, error) {
		if calls.Add(1)%2 == 1 {
			return rsB, nil // first reload installs version 2
		}
		return rsA, nil
	}
	repA, err := repair.NewRepairerChecked(rsA)
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithConfig(repA, Config{Loader: loader, Logger: discardLogger, MaxInFlight: 128})
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := srv.Client()

	const (
		repairers = 8
		reqEach   = 120
		reloaders = 2
		relEach   = 40
	)
	errc := make(chan error, repairers*reqEach+reloaders*relEach)
	var wg sync.WaitGroup
	for g := 0; g < repairers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := `{"tuples": [["Ian","China","Shanghai","x","y"]]}`
			for i := 0; i < reqEach; i++ {
				resp, err := client.Post(srv.URL+"/repair", "application/json", strings.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var out repairResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("repair status %d", resp.StatusCode)
					continue
				}
				if decErr != nil {
					errc <- decErr
					continue
				}
				v, err := strconv.Atoi(resp.Header.Get(VersionHeader))
				if err != nil {
					errc <- fmt.Errorf("bad version header %q", resp.Header.Get(VersionHeader))
					continue
				}
				want := "Beijing"
				if v%2 == 0 {
					want = "Peking"
				}
				if got := out.Repaired[0].Tuple[2]; got != want {
					errc <- fmt.Errorf("version %d answered %q, want %q", v, got, want)
				}
			}
		}()
	}
	for g := 0; g < reloaders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < relEach; i++ {
				resp, err := client.Post(srv.URL+"/reload", "", nil)
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("reload status %d", resp.StatusCode)
				}
			}
		}()
	}
	// Scrape /metrics and /stats concurrently too: the registry and the
	// engine snapshot must stay coherent under reload.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, path := range []string{"/metrics", "/stats"} {
					resp, err := client.Get(srv.URL + path)
					if err != nil {
						errc <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("%s status %d", path, resp.StatusCode)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	bad := 0
	for err := range errc {
		bad++
		if bad <= 10 {
			t.Error(err)
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more errors", bad-10)
	}

	// Every loader call installed exactly one version.
	wantVersion := calls.Load() + 1
	if v := s.def.eng.Load().version; v != wantVersion {
		t.Errorf("final version = %d, want %d (loader calls %d)", v, wantVersion, calls.Load())
	}
}
