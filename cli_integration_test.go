package fixrule_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCLIPipeline builds every command and drives the full workflow through
// their real binaries: generate data, mine nothing (rules come from a DSL
// file), check + resolve the ruleset, repair, explain, and stream.
// Skipped with -short (it shells out to the Go toolchain).
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: skipping CLI integration test")
	}
	dir := t.TempDir()
	bin := map[string]string{}
	for _, name := range []string{"datagen", "rulecheck", "fixrepair"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		bin[name] = out
	}

	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin[name], args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// 1. Generate a small uis corpus.
	out := run("datagen", "-dataset", "uis", "-rows", "400", "-out", dir)
	if !strings.Contains(out, "uis.clean.csv") {
		t.Fatalf("datagen output:\n%s", out)
	}

	// 2. Author a ruleset with a deliberate Example 8 conflict and resolve.
	rules := filepath.Join(dir, "travel.dsl")
	if err := os.WriteFile(rules, []byte(`
SCHEMA Travel(name, country, capital, city, conf)
RULE phi1p
  WHEN country = "China"
  IF capital IN ("Shanghai", "Hongkong", "Tokyo")
  THEN capital = "Beijing"
RULE phi3
  WHEN capital = "Tokyo", city = "Tokyo", conf = "ICDE"
  IF country IN ("China")
  THEN country = "Japan"
`), 0o644); err != nil {
		t.Fatal(err)
	}
	fixed := filepath.Join(dir, "travel.fixed.dsl")
	out = run("rulecheck", "-rules", rules, "-resolve", "trim", "-stats", "-out", fixed)
	if !strings.Contains(out, "INCONSISTENT") || !strings.Contains(out, "wrote 2 rules") {
		t.Fatalf("rulecheck output:\n%s", out)
	}

	// 3. Repair the Figure 1 data with the resolved rules.
	data := filepath.Join(dir, "travel.csv")
	if err := os.WriteFile(data, []byte(
		"name,country,capital,city,conf\n"+
			"George,China,Beijing,Beijing,SIGMOD\n"+
			"Ian,China,Shanghai,Hongkong,ICDE\n"+
			"Peter,China,Tokyo,Tokyo,ICDE\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	repaired := filepath.Join(dir, "travel.repaired.csv")
	out = run("fixrepair", "-rules", fixed, "-data", data, "-out", repaired)
	if !strings.Contains(out, "applied 2 repairs") {
		t.Fatalf("fixrepair output:\n%s", out)
	}
	got, err := os.ReadFile(repaired)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "Ian,China,Beijing,Hongkong,ICDE") ||
		!strings.Contains(string(got), "Peter,Japan,Tokyo,Tokyo,ICDE") {
		t.Fatalf("repaired CSV:\n%s", got)
	}

	// 4. Explain a single row's repair.
	out = run("fixrepair", "-rules", fixed, "-data", data, "-explain", "2")
	if !strings.Contains(out, "phi3") || !strings.Contains(out, "Japan") {
		t.Fatalf("explain output:\n%s", out)
	}

	// 5. Stream mode produces the same repaired file.
	streamed := filepath.Join(dir, "travel.streamed.csv")
	out = run("fixrepair", "-rules", fixed, "-data", data, "-stream", "-out", streamed)
	if !strings.Contains(out, "streamed 3 rows") {
		t.Fatalf("stream output:\n%s", out)
	}
	got2, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != string(got) {
		t.Error("streamed output differs from batch output")
	}

	// 6. Parallel stream mode (-workers routes into the pipelined engine)
	// produces byte-identical output again.
	streamedPar := filepath.Join(dir, "travel.streamed-par.csv")
	out = run("fixrepair", "-rules", fixed, "-data", data, "-stream", "-workers", "2", "-out", streamedPar)
	if !strings.Contains(out, "streamed 3 rows") {
		t.Fatalf("parallel stream output:\n%s", out)
	}
	got3, err := os.ReadFile(streamedPar)
	if err != nil {
		t.Fatal(err)
	}
	if string(got3) != string(got) {
		t.Error("parallel streamed output differs from batch output")
	}

	// 7. Streaming with -log captures the same repair log batch mode
	// writes, and -revert applies it in reverse: the restored file is
	// byte-identical to the dirty original, at any worker count.
	logged := filepath.Join(dir, "travel.logged.csv")
	logFile := filepath.Join(dir, "repairs.csv")
	out = run("fixrepair", "-rules", fixed, "-data", data,
		"-stream", "-workers", "2", "-out", logged, "-log", logFile)
	if !strings.Contains(out, "wrote "+logFile) {
		t.Fatalf("stream -log output:\n%s", out)
	}
	restored := filepath.Join(dir, "travel.restored.csv")
	run("fixrepair", "-revert", logFile, "-data", logged, "-out", restored)
	original, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(restored)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(original) {
		t.Errorf("revert of streamed log is not byte-identical:\n got %q\nwant %q", back, original)
	}

	// 8. -trace prints the chase of each repaired tuple: rule, rewrite,
	// and evidence, in the Explain vocabulary.
	out = run("fixrepair", "-rules", fixed, "-data", data, "-alg", "chase", "-trace")
	if !strings.Contains(out, "trace row 1") ||
		!strings.Contains(out, `"Shanghai" -> "Beijing"`) ||
		!strings.Contains(out, "assured [") {
		t.Fatalf("-trace output:\n%s", out)
	}

	// 9. -workers is rejected in modes that cannot use it.
	if out, err := exec.Command(bin["fixrepair"], "-rules", fixed, "-data", data,
		"-explain", "2", "-workers", "4").CombinedOutput(); err == nil {
		t.Fatalf("-explain -workers 4 should fail, got:\n%s", out)
	} else if !strings.Contains(string(out), "-workers") {
		t.Fatalf("-explain -workers error should mention -workers:\n%s", out)
	}

	// 10. frel is a batch format: -stream refuses a .frel input or output
	// before reading any input, points at .fcol or batch mode, and leaves
	// no output file behind.
	frel := filepath.Join(dir, "travel.frel")
	run("fixrepair", "-rules", fixed, "-data", data, "-out", frel)
	for _, tc := range []struct{ in, out string }{
		{frel, filepath.Join(dir, "from-frel.csv")},
		{data, filepath.Join(dir, "to-frel.frel")},
	} {
		out, err := exec.Command(bin["fixrepair"], "-rules", fixed, "-data", tc.in,
			"-stream", "-out", tc.out).CombinedOutput()
		if err == nil {
			t.Fatalf("-stream %s -> %s should fail, got:\n%s", tc.in, tc.out, out)
		}
		if !strings.Contains(string(out), ".fcol") || !strings.Contains(string(out), "batch mode") {
			t.Errorf("-stream %s -> %s error should point to .fcol or batch mode:\n%s", tc.in, tc.out, out)
		}
		if _, err := os.Stat(tc.out); !os.IsNotExist(err) {
			t.Errorf("-stream %s -> %s left an output file behind (stat err %v)", tc.in, tc.out, err)
		}
	}
}

// TestFixserveLifecycle drives the real fixserve binary end to end:
// startup on a free port, /healthz, /repair, /metrics, a hot /reload that
// changes repair behaviour, and a SIGTERM graceful shutdown that lets an
// in-flight streaming request complete before the process exits 0.
// Skipped with -short (it shells out to the Go toolchain).
func TestFixserveLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: skipping fixserve integration test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fixserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fixserve")
	build.Env = os.Environ()
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building fixserve: %v\n%s", err, msg)
	}

	ruleFile := func(fact string) string {
		return fmt.Sprintf(`SCHEMA Travel(name, country, capital, city, conf)
RULE phi1
  WHEN country = "China"
  IF capital IN ("Shanghai", "Hongkong")
  THEN capital = %q
`, fact)
	}
	rules := filepath.Join(dir, "serve.dsl")
	if err := os.WriteFile(rules, []byte(ruleFile("Beijing")), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-rules", rules, "-addr", "127.0.0.1:0", "-drain-timeout", "10s",
		"-trace-sample", "1", "-log-level", "warn")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stdout line announces the resolved listen address.
	scanner := bufio.NewScanner(stdout)
	if !scanner.Scan() {
		t.Fatalf("fixserve produced no output")
	}
	first := scanner.Text()
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	i := strings.LastIndex(first, "listening on ")
	if i < 0 {
		t.Fatalf("startup line %q has no address", first)
	}
	base := "http://" + strings.TrimSpace(first[i+len("listening on "):])

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	resp, err := http.Post(base+"/repair", "application/json",
		strings.NewReader(`{"tuples": [["Ian","China","Shanghai","Hongkong","ICDE"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	repairBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(repairBody), "Beijing") {
		t.Fatalf("/repair = %d %q", resp.StatusCode, repairBody)
	}
	if v := resp.Header.Get("X-Fixserve-Ruleset-Version"); v != "1" {
		t.Errorf("ruleset version header = %q, want 1", v)
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" {
		t.Error("/repair response missing X-Request-Id")
	}
	tp := resp.Header.Get("traceparent")
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") {
		t.Errorf("/repair traceparent = %q", tp)
	}

	// At -trace-sample 1 the repair request's trace is in the ring, and
	// the drill-down view carries its request ID and chase steps.
	if code, body := get("/debug/traces/" + tp[3:35]); code != 200 ||
		!strings.Contains(body, reqID) || !strings.Contains(body, "chase.step") {
		t.Fatalf("/debug/traces/<id> = %d\n%s", code, body)
	}

	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, `fixserve_requests_total{endpoint="/repair"} 1`) ||
		!strings.Contains(body, "fixserve_ruleset_version 1") {
		t.Fatalf("/metrics = %d\n%s", code, body)
	}

	// Hot reload: rewrite the rule file with a different fact and ask the
	// server to swap; repairs must change behaviour, version must bump.
	if err := os.WriteFile(rules, []byte(ruleFile("Peking")), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	reloadBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(reloadBody), `"ruleset_version": 2`) {
		t.Fatalf("/reload = %d %q", resp.StatusCode, reloadBody)
	}
	resp, err = http.Post(base+"/repair", "application/json",
		strings.NewReader(`{"tuples": [["Ian","China","Shanghai","Hongkong","ICDE"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	repairBody, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(repairBody), "Peking") {
		t.Fatalf("post-reload /repair did not use new ruleset: %q", repairBody)
	}

	// Graceful shutdown: start a streaming repair whose body arrives
	// slowly, SIGTERM mid-flight, then finish the upload. The response
	// must complete and the process must exit 0.
	pr, pw := io.Pipe()
	type result struct {
		code int
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/repair/csv", "text/csv", pr)
		if err != nil {
			done <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{code: resp.StatusCode, body: body}
	}()
	io.WriteString(pw, "name,country,capital,city,conf\nIan,China,Shanghai,Hongkong,ICDE\n")
	time.Sleep(200 * time.Millisecond) // let the request reach the handler
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // listener closes while we're in flight
	io.WriteString(pw, "Amy,China,Hongkong,Paris,VLDB\n")
	pw.Close()

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed across SIGTERM: %v", r.err)
	}
	if r.code != 200 || !bytes.Contains(r.body, []byte("Ian,China,Peking")) ||
		!bytes.Contains(r.body, []byte("Amy,China,Peking")) {
		t.Fatalf("in-flight response = %d %q", r.code, r.body)
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("fixserve exit: %v", err)
	}
	// The listener is gone: new connections must fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after graceful shutdown")
	}
}

// TestFixserveShardedLifecycle stands up the full sharded topology from
// real binaries: two `-mode worker` processes over a per-tenant rules
// directory and one `-mode proxy` in front. It exercises routing through
// the ring, per-tenant hot deploy via the proxy, the worker-mode refusal
// of legacy engine routes, and SIGTERM drain of every process.
// Skipped with -short (it shells out to the Go toolchain).
func TestFixserveShardedLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("-short: skipping sharded fixserve integration test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fixserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fixserve")
	build.Env = os.Environ()
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building fixserve: %v\n%s", err, msg)
	}

	tenantRule := func(fact string) string {
		return fmt.Sprintf(`SCHEMA Travel(name, country, capital, city, conf)
RULE phi1
  WHEN country = "China"
  IF capital IN ("Shanghai", "Hongkong")
  THEN capital = %q
`, fact)
	}
	rulesDir := filepath.Join(dir, "tenants")
	if err := os.Mkdir(rulesDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for tenant, fact := range map[string]string{"acme": "Beijing", "globex": "Peking"} {
		if err := os.WriteFile(filepath.Join(rulesDir, tenant+".dsl"),
			[]byte(tenantRule(fact)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// start launches one fixserve process and returns its base URL parsed
	// from the startup line.
	start := func(args ...string) (*exec.Cmd, string) {
		t.Helper()
		cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0",
			"-drain-timeout", "10s", "-log-level", "warn")...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill() })
		scanner := bufio.NewScanner(stdout)
		if !scanner.Scan() {
			t.Fatalf("fixserve %v produced no output", args)
		}
		first := scanner.Text()
		go io.Copy(io.Discard, stdout)
		i := strings.LastIndex(first, "listening on ")
		if i < 0 {
			t.Fatalf("startup line %q has no address", first)
		}
		return cmd, "http://" + strings.TrimSpace(first[i+len("listening on "):])
	}

	w1, w1URL := start("-mode", "worker", "-tenant-rules", rulesDir)
	w2, w2URL := start("-mode", "worker", "-tenant-rules", rulesDir)
	proxy, proxyURL := start("-mode", "proxy", "-peers", w1URL+","+w2URL)

	post := func(base, path, contentType, body string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Post(base+path, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s%s: %v", base, path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b), resp.Header
	}
	ian := `{"tuples": [["Ian","China","Shanghai","Hongkong","ICDE"]]}`

	// Both tenants repair through the proxy with their own rulesets,
	// wherever the ring placed them.
	if code, body, hdr := post(proxyURL, "/t/acme/repair", "application/json", ian); code != 200 ||
		!strings.Contains(body, "Beijing") || hdr.Get("X-Fixserve-Tenant") != "acme" {
		t.Fatalf("/t/acme/repair via proxy = %d %q", code, body)
	}
	if code, body, _ := post(proxyURL, "/t/globex/repair", "application/json", ian); code != 200 ||
		!strings.Contains(body, "Peking") {
		t.Fatalf("/t/globex/repair via proxy = %d %q", code, body)
	}

	// The proxy's /shard endpoint names both workers and acme's owner.
	resp, err := http.Get(proxyURL + "/shard?tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	shardBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(shardBody), w1URL) || !strings.Contains(string(shardBody), w2URL) ||
		!strings.Contains(string(shardBody), `"owner"`) {
		t.Fatalf("/shard = %s", shardBody)
	}

	// Per-tenant hot deploy: rewrite acme's rule file, reload through the
	// proxy, and the next proxied repair uses the new ruleset.
	if err := os.WriteFile(filepath.Join(rulesDir, "acme.dsl"),
		[]byte(tenantRule("Peiping")), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, body, _ := post(proxyURL, "/t/acme/reload", "", ""); code != 200 ||
		!strings.Contains(body, `"ruleset_version": 2`) {
		t.Fatalf("/t/acme/reload via proxy = %d %q", code, body)
	}
	if code, body, _ := post(proxyURL, "/t/acme/repair", "application/json", ian); code != 200 ||
		!strings.Contains(body, "Peiping") {
		t.Fatalf("post-reload /t/acme/repair via proxy = %d %q", code, body)
	}
	// globex is untouched by acme's deploy.
	if _, body, _ := post(proxyURL, "/t/globex/repair", "application/json", ian); !strings.Contains(body, "Peking") {
		t.Fatalf("globex changed behaviour after acme reload: %q", body)
	}

	// Workers run tenant routes only: the legacy engine surface answers
	// 404 with the stable no-default-ruleset envelope.
	if code, body, _ := post(w1URL, "/repair", "application/json", ian); code != 404 ||
		!strings.Contains(body, "no_default_ruleset") {
		t.Fatalf("worker /repair = %d %q, want 404 no_default_ruleset", code, body)
	}
	// But their probes and metrics still serve (the ops surface survives).
	for _, u := range []string{w1URL, w2URL} {
		r, err := http.Get(u + "/healthz")
		if err != nil || r.StatusCode != 200 {
			t.Fatalf("worker %s /healthz: %v %v", u, err, r)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}

	// SIGTERM everything; each process must drain and exit 0.
	for _, c := range []*exec.Cmd{proxy, w1, w2} {
		if err := c.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for name, c := range map[string]*exec.Cmd{"proxy": proxy, "worker1": w1, "worker2": w2} {
		if err := c.Wait(); err != nil {
			t.Fatalf("%s exit after SIGTERM: %v", name, err)
		}
	}
	if _, err := http.Get(proxyURL + "/healthz"); err == nil {
		t.Error("proxy still accepting after graceful shutdown")
	}
}
