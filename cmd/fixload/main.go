// Command fixload is the open-loop load generator for fixserve: it drives a
// running server (standalone, worker or proxy mode alike) at a target
// request rate with a mixed repair workload and reports
// coordinated-omission-corrected latency quantiles, throughput, shed/error
// rates, an SLO verdict and the server's own /metrics delta.
//
// Usage:
//
//	fixload -url http://127.0.0.1:8080 -rps 500 -duration 30s
//	fixload -url http://127.0.0.1:8080 -rps 100:1000:5 -duration 10s \
//	    -mix repair=4,csv=4,explain=1 -slo p99=50ms,err<0.1%
//	fixload -url http://127.0.0.1:8080 -tenants acme,globex -hot-frac 0.8 \
//	    -json load.json
//
// The schedule is open loop: request i of a phase is due at start + i/rate
// no matter how long earlier responses take, and latency is measured from
// that scheduled instant — a stalled server shows up as growing recorded
// latency, never as a quietly slowed generator (docs/LOADTEST.md explains
// why the closed-loop alternative lies under saturation).
//
// Exit status: 0 when the run completes and the SLO (if any) passes, 1 when
// the SLO fails, 2 on usage or setup errors (including a failed preflight).
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"net/http"

	"fixrule/internal/loadgen"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		url        = flag.String("url", "http://127.0.0.1:8080", "base URL of the server under test (standalone, worker or proxy)")
		rpsSpec    = flag.String("rps", "100", "target rate: a number, or a ramp start:end:steps (e.g. 100:1000:5)")
		duration   = flag.Duration("duration", 10*time.Second, "measured duration per rate step")
		warmup     = flag.Duration("warmup", 2*time.Second, "warmup before the first measured phase (full load, excluded from the report)")
		mixSpec    = flag.String("mix", "repair=4,csv=4,explain=1", "workload mix: op=weight list over repair, csv, explain")
		dataPath   = flag.String("data", "testdata/hosp/dirty.csv", "CSV relation (header + rows) request bodies are drawn from")
		dataset    = flag.String("dataset", "", "dataset label for the JSON record (default: data file basename)")
		batch      = flag.Int("batch", 16, "tuples per /repair request")
		streamRows = flag.Int("stream-rows", 256, "rows per /repair/csv request")
		algorithm  = flag.String("algorithm", "", "repair algorithm parameter (empty = server default)")
		tenantsCSV = flag.String("tenants", "", "comma-separated tenants to spread load over /t/{tenant}/ routes")
		hotFrac    = flag.Float64("hot-frac", 0, "fraction of tenant requests pinned to the first tenant (hot-tenant skew)")
		conns      = flag.Int("max-conns", 128, "worker pool size — the max in-flight requests")
		queueCap   = flag.Int("queue", 16384, "pending-ticket queue bound; overflow counts as dropped")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		sloSpec    = flag.String("slo", "", "SLO terms, e.g. p99=50ms,err<0.1% (empty = no verdict)")
		jsonPath   = flag.String("json", "", "append the run's JSON records to this file (BENCH_repair.json-compatible rows)")
		scrape     = flag.Bool("scrape", true, "scrape <url>/metrics before and after and report the server-side delta")
		quality    = flag.Bool("quality", false, "fetch <url>/quality before and after and embed both reports in the JSON record")
		seed       = flag.Int64("seed", 1, "workload picker seed")
	)
	flag.Parse()

	phases, err := parseRPSSpec(*rpsSpec, *duration, *warmup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fixload: %v\n", err)
		return 2
	}
	mix, err := loadgen.ParseMix(*mixSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fixload: %v\n", err)
		return 2
	}
	slo, err := loadgen.ParseSLO(*sloSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fixload: %v\n", err)
		return 2
	}
	header, rows, err := loadRelation(*dataPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fixload: %v\n", err)
		return 2
	}
	if *dataset == "" {
		base := (*dataPath)[strings.LastIndexByte(*dataPath, '/')+1:]
		*dataset = strings.TrimSuffix(base, ".csv")
	}

	var tenants []string
	for _, t := range strings.Split(*tenantsCSV, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tenants = append(tenants, t)
		}
	}

	cfg := loadgen.Config{
		BaseURL:    *url,
		Phases:     phases,
		Mix:        mix,
		Header:     header,
		Rows:       rows,
		Tenants:    tenants,
		HotFrac:    *hotFrac,
		Algorithm:  *algorithm,
		Batch:      *batch,
		StreamRows: *streamRows,
		Conns:      *conns,
		QueueCap:   *queueCap,
		Timeout:    *timeout,
		Seed:       *seed,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "fixload: "+format+"\n", args...)
		},
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := loadgen.Preflight(ctx, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "fixload: %v\n", err)
		return 2
	}

	var before loadgen.Scrape
	metricsURL := strings.TrimRight(*url, "/") + "/metrics"
	if *scrape {
		if before, err = loadgen.ScrapeMetrics(ctx, http.DefaultClient, metricsURL); err != nil {
			fmt.Fprintf(os.Stderr, "fixload: pre-run scrape failed (%v); continuing without server-side delta\n", err)
			before = nil
		}
	}
	var qualityBefore json.RawMessage
	qualityURL := strings.TrimRight(*url, "/") + "/quality"
	if *quality {
		if qualityBefore, err = fetchQuality(ctx, qualityURL); err != nil {
			fmt.Fprintf(os.Stderr, "fixload: pre-run /quality fetch failed (%v); continuing\n", err)
		}
	}

	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fixload: %v\n", err)
		return 2
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "fixload: interrupted; reporting partial results\n")
	}

	var qualityAfter json.RawMessage
	if *quality {
		if qualityAfter, err = fetchQuality(context.Background(), qualityURL); err != nil {
			fmt.Fprintf(os.Stderr, "fixload: post-run /quality fetch failed (%v)\n", err)
		}
	}

	rep.WriteText(os.Stdout)
	if before != nil {
		if after, err := loadgen.ScrapeMetrics(context.Background(), http.DefaultClient, metricsURL); err == nil {
			loadgen.WriteServerDelta(os.Stdout, before, after)
		} else {
			fmt.Fprintf(os.Stderr, "fixload: post-run scrape failed (%v)\n", err)
		}
	}

	results, pass := slo.Evaluate(rep)
	loadgen.WriteSLOText(os.Stdout, results, pass)

	if *jsonPath != "" {
		verdict := ""
		if len(slo.Terms) > 0 {
			verdict = "pass"
			if !pass {
				verdict = "fail"
			}
		}
		label := fmt.Sprintf("load/%s@%.0frps", *mixSpec, rep.TargetRPS)
		rec := rep.Record(*dataset, label, verdict)
		rec.QualityBefore = qualityBefore
		rec.QualityAfter = qualityAfter
		if err := appendRecord(*jsonPath, rec); err != nil {
			fmt.Fprintf(os.Stderr, "fixload: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "fixload: record appended to %s\n", *jsonPath)
	}

	if !pass {
		return 1
	}
	return 0
}

// parseRPSSpec expands the -rps grammar into the phase schedule: "500" is
// one phase; "100:1000:5" is five measured phases stepping linearly from
// 100 to 1000 rps, each held for the -duration. The warmup phase, when
// positive, runs first at the initial rate.
func parseRPSSpec(spec string, dur, warmup time.Duration) ([]loadgen.Phase, error) {
	if dur <= 0 {
		return nil, fmt.Errorf("-duration must be positive")
	}
	parts := strings.Split(spec, ":")
	var rates []float64
	switch len(parts) {
	case 1:
		r, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad -rps %q", spec)
		}
		rates = []float64{r}
	case 3:
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		steps, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || lo <= 0 || hi <= 0 || steps < 1 {
			return nil, fmt.Errorf("bad -rps ramp %q (want start:end:steps)", spec)
		}
		if steps == 1 {
			rates = []float64{lo}
			break
		}
		for i := 0; i < steps; i++ {
			rates = append(rates, lo+(hi-lo)*float64(i)/float64(steps-1))
		}
	default:
		return nil, fmt.Errorf("bad -rps %q (want RATE or start:end:steps)", spec)
	}
	var phases []loadgen.Phase
	if warmup > 0 {
		phases = append(phases, loadgen.Phase{RPS: rates[0], Duration: warmup, Warmup: true})
	}
	for _, r := range rates {
		phases = append(phases, loadgen.Phase{RPS: r, Duration: dur})
	}
	return phases, nil
}

// loadRelation reads the workload CSV: first record is the header, the rest
// are data rows.
func loadRelation(path string) (header []string, rows [][]string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	all, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(all) < 2 {
		return nil, nil, fmt.Errorf("%s: need a header and at least one data row", path)
	}
	return all[0], all[1:], nil
}

// fetchQuality GETs the server's /quality report and returns the body
// verbatim. Non-200 statuses (a proxy answers 503 quality_unavailable
// before its first probe round lands) and invalid JSON are errors; the
// caller degrades to omitting the field rather than aborting the run.
func fetchQuality(ctx context.Context, url string) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	if !json.Valid(body) {
		return nil, fmt.Errorf("%s: response is not valid JSON", url)
	}
	return json.RawMessage(body), nil
}

// appendRecord merges one record into the JSON array at path (created when
// absent) — the same grow-in-place convention the bench harness uses for
// BENCH_repair.json.
func appendRecord(path string, rec loadgen.LoadRecord) error {
	var recs []loadgen.LoadRecord
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	recs = append(recs, rec)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return loadgen.WriteJSON(f, recs)
}
