package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
)

// Op is one request shape in the workload mix.
type Op int

const (
	// OpRepair posts a JSON tuple batch to /repair.
	OpRepair Op = iota
	// OpCSV streams a CSV body through /repair/csv.
	OpCSV
	// OpExplain posts one tuple to /explain.
	OpExplain
)

// String names the op as the -mix grammar spells it.
func (o Op) String() string {
	switch o {
	case OpRepair:
		return "repair"
	case OpCSV:
		return "csv"
	case OpExplain:
		return "explain"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// MixEntry weights one op in the workload mix.
type MixEntry struct {
	Op     Op
	Weight int
}

// ParseMix parses the -mix grammar: comma-separated op=weight pairs over
// repair, csv and explain, e.g. "repair=4,csv=2,explain=1".
func ParseMix(s string) ([]MixEntry, error) {
	var mix []MixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, found := strings.Cut(part, "=")
		w := 1
		if found {
			var err error
			if w, err = strconv.Atoi(strings.TrimSpace(wstr)); err != nil || w < 0 {
				return nil, fmt.Errorf("mix entry %q: bad weight", part)
			}
		}
		var op Op
		switch strings.TrimSpace(name) {
		case "repair":
			op = OpRepair
		case "csv":
			op = OpCSV
		case "explain":
			op = OpExplain
		default:
			return nil, fmt.Errorf("mix entry %q: unknown op (want repair, csv or explain)", part)
		}
		if w > 0 {
			mix = append(mix, MixEntry{Op: op, Weight: w})
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("mix %q selects no requests", s)
	}
	return mix, nil
}

// outcome classifies one completed request.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeShed
	outcomeError
	outcomeTruncated
)

// bodyVariants is how many distinct prebuilt bodies each op rotates
// through: enough to spread over the workload rows without rebuilding a
// body per request on the hot path.
const bodyVariants = 32

// workload holds prebuilt request bodies per op so the ticket path does no
// encoding work — it picks a variant, builds the header set, and sends.
type workload struct {
	base    string
	csvPath string // query suffix for CSV ops ("?algorithm=..." or "")

	repairBodies  [][]byte
	csvBodies     [][]byte
	explainBodies [][]byte

	repairTuples int64 // tuples per repair body
	csvTuples    int64 // rows per csv body

	next atomic.Uint64 // variant rotation cursor
}

func newWorkload(cfg Config) (*workload, error) {
	w := &workload{
		base:         trimBase(cfg.BaseURL),
		repairTuples: int64(cfg.Batch),
		csvTuples:    int64(cfg.StreamRows),
	}
	if cfg.Algorithm != "" {
		w.csvPath = "?algorithm=" + cfg.Algorithm
	}

	rows := cfg.Rows
	pick := func(start, n int) [][]string {
		out := make([][]string, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, rows[(start+i)%len(rows)])
		}
		return out
	}
	for v := 0; v < bodyVariants; v++ {
		batch := pick(v*cfg.Batch, cfg.Batch)
		body, err := json.Marshal(struct {
			Tuples    [][]string `json:"tuples"`
			Algorithm string     `json:"algorithm,omitempty"`
		}{Tuples: batch, Algorithm: cfg.Algorithm})
		if err != nil {
			return nil, err
		}
		w.repairBodies = append(w.repairBodies, body)

		var csv bytes.Buffer
		writeCSVRow(&csv, cfg.Header)
		for _, row := range pick(v*cfg.StreamRows, cfg.StreamRows) {
			writeCSVRow(&csv, row)
		}
		w.csvBodies = append(w.csvBodies, csv.Bytes())

		expl, err := json.Marshal(struct {
			Tuple     []string `json:"tuple"`
			Algorithm string   `json:"algorithm,omitempty"`
		}{Tuple: rows[v%len(rows)], Algorithm: cfg.Algorithm})
		if err != nil {
			return nil, err
		}
		w.explainBodies = append(w.explainBodies, expl)
	}
	return w, nil
}

// writeCSVRow emits one minimally quoted CSV record (the workload rows
// come from a parsed CSV, so quoting is only needed for embedded commas,
// quotes or newlines).
func writeCSVRow(b *bytes.Buffer, row []string) {
	for i, cell := range row {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(cell, ",\"\n\r") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(cell)
		}
	}
	b.WriteByte('\n')
}

// request materialises the HTTP request for one ticket.
func (w *workload) request(ctx context.Context, tk ticket) (*http.Request, int64, error) {
	prefix := ""
	if tk.tenant != "" {
		prefix = "/t/" + tk.tenant
	}
	v := int(w.next.Add(1) % bodyVariants)
	var (
		url, ctype string
		body       []byte
		tuples     int64
	)
	switch tk.op {
	case OpRepair:
		url = w.base + prefix + "/repair"
		ctype = "application/json"
		body = w.repairBodies[v]
		tuples = w.repairTuples
	case OpCSV:
		url = w.base + prefix + "/repair/csv" + w.csvPath
		ctype = "text/csv"
		body = w.csvBodies[v]
		tuples = w.csvTuples
	case OpExplain:
		url = w.base + prefix + "/explain"
		ctype = "application/json"
		body = w.explainBodies[v]
		tuples = 1
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", ctype)
	return req, tuples, nil
}

// do sends one ticket's request and classifies the outcome. The response
// body is always drained in full (streams must finish before latency is
// final); only a small tail is retained to detect a mid-stream error
// envelope on an otherwise-2xx stream.
func (w *workload) do(ctx context.Context, client *http.Client, tk ticket) (out outcome, retryAfter int64, tuples, respBytes int64) {
	req, tuples, err := w.request(ctx, tk)
	if err != nil {
		return outcomeError, 0, 0, 0
	}
	resp, err := client.Do(req)
	if err != nil {
		return outcomeError, 0, 0, 0
	}
	defer resp.Body.Close()
	tail := &tailReader{}
	n, readErr := io.Copy(tail, resp.Body)

	switch {
	case readErr != nil:
		return outcomeError, 0, 0, n
	case resp.StatusCode == http.StatusServiceUnavailable:
		ra, _ := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
		return outcomeShed, ra, 0, n
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		return outcomeError, 0, 0, n
	case tk.op == OpCSV && tail.sawEnvelope():
		// A 2xx stream that ends in a JSON error envelope was cut
		// mid-flight (the server's only way to signal failure after the
		// status line is gone).
		return outcomeTruncated, 0, 0, n
	}
	return outcomeOK, 0, tuples, n
}

// tailReader counts written bytes and retains the last tailKeep of them.
type tailReader struct {
	n    int64
	tail []byte
}

const tailKeep = 512

func (t *tailReader) Write(p []byte) (int, error) {
	t.n += int64(len(p))
	if len(p) >= tailKeep {
		t.tail = append(t.tail[:0], p[len(p)-tailKeep:]...)
		return len(p), nil
	}
	if keep := len(t.tail) + len(p) - tailKeep; keep > 0 {
		t.tail = t.tail[keep:]
	}
	t.tail = append(t.tail, p...)
	return len(p), nil
}

func (t *tailReader) sawEnvelope() bool {
	i := bytes.LastIndex(t.tail, []byte(`{"error"`))
	return i >= 0 && bytes.Contains(t.tail[i:], []byte(`"code"`))
}

// Preflight sends one small repair request (to the first tenant when
// tenants are configured) and fails fast on anything but success or shed —
// the run would only produce a wall of identical errors otherwise. The
// returned error carries the server's envelope for diagnosis.
func Preflight(ctx context.Context, cfg Config) error {
	cfg = cfg.withDefaults()
	wl, err := newWorkload(cfg)
	if err != nil {
		return err
	}
	tk := ticket{op: OpRepair}
	if len(cfg.Tenants) > 0 {
		tk.tenant = cfg.Tenants[0]
	}
	req, _, err := wl.request(ctx, tk)
	if err != nil {
		return err
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("preflight %s: %w", req.URL, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 || resp.StatusCode == http.StatusServiceUnavailable {
		return nil
	}
	return fmt.Errorf("preflight %s: %s: %s", req.URL, resp.Status, strings.TrimSpace(string(body)))
}
