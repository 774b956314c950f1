// Command fixrepair repairs a relation with a fixing-rule file using
// either repairing algorithm of Section 6. Data files are CSV, the compact
// binary frel format for *.frel paths (batch mode only), or the columnar
// fcol chunk format for *.fcol paths (-stream only).
//
// Usage:
//
//	fixrepair -rules rules.dsl -data dirty.csv -out repaired.csv -log repairs.csv
//	fixrepair -rules rules.dsl -data dirty.csv -alg chase
//	fixrepair -rules rules.dsl -data dirty.csv -explain 2       # provenance of row 2
//	fixrepair -rules rules.dsl -data dirty.csv -trace           # chase trace of each repair
//	fixrepair -rules rules.dsl -data big.csv -stream -out fixed.csv
//	fixrepair -rules rules.dsl -data big.csv -stream -workers 8 -out fixed.csv -log repairs.csv
//	fixrepair -rules rules.dsl -data big.fcol -stream -out fixed.fcol
//	fixrepair -revert repairs.csv -data repaired.csv -out restored.csv
//
// -stream repairs in constant memory and takes CSV or fcol: an .fcol input
// needs an .fcol output, and a CSV input with an .fcol output converts
// while repairing. frel is a batch format; -stream refuses *.frel paths
// before reading any input. The streamed bytes are identical at any
// -workers count, and identical to batch mode's for CSV.
//
// The data file's header (or frel/fcol schema) must match the rule schema.
// -log writes one changed cell per line (row, attribute, old, new), in
// batch and streaming mode alike; -revert applies such a log in reverse,
// restoring the exact pre-repair state. -trace prints each repaired
// tuple's chase: which rules fired, on what evidence, what they rewrote,
// and the assured set after each step (-trace-sample and -trace-max bound
// the output on large runs).
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"fixrule"
	"fixrule/internal/repairlog"
	"fixrule/internal/ruleio"
	"fixrule/internal/store"
)

func main() {
	var (
		rulesPath   = flag.String("rules", "", "rule file (DSL, or JSON when *.json)")
		dataPath    = flag.String("data", "", "input CSV (header must match the rule schema)")
		outPath     = flag.String("out", "", "output CSV for the repaired relation")
		logPath     = flag.String("log", "", "optional CSV log of applied repairs")
		alg         = flag.String("alg", "linear", "repair algorithm: linear (lRepair) or chase (cRepair)")
		workers     = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		explain     = flag.Int("explain", -1, "print the repair provenance of this row and exit")
		stream      = flag.Bool("stream", false, "stream rows through the repairer (constant memory; CSV or .fcol, not .frel); requires -out")
		revert      = flag.String("revert", "", "undo a previous repair: apply this -log file in reverse to -data; requires -out")
		doTrace     = flag.Bool("trace", false, "print a chase trace of each repaired tuple (rule, evidence, old -> new, assured set)")
		traceSample = flag.Float64("trace-sample", 1, "fraction of rows eligible for -trace, sampled deterministically")
		traceMax    = flag.Int("trace-max", 0, "max tuples traced by -trace (0 = 256, negative = unlimited)")
	)
	flag.Parse()
	if (*rulesPath == "" && *revert == "") || *dataPath == "" {
		fmt.Fprintln(os.Stderr, "fixrepair: -rules (or -revert) and -data are required")
		flag.Usage()
		os.Exit(2)
	}
	if *revert != "" {
		if *workers > 1 {
			fmt.Fprintln(os.Stderr, "fixrepair: -workers does not apply to -revert (log replay is inherently ordered)")
			os.Exit(2)
		}
		if err := runRevert(*revert, *dataPath, *outPath); err != nil {
			fmt.Fprintln(os.Stderr, "fixrepair:", err)
			os.Exit(1)
		}
		return
	}
	tc := traceConfig{enabled: *doTrace, sample: *traceSample, max: *traceMax}
	if err := run(*rulesPath, *dataPath, *outPath, *logPath, *alg, *workers, *explain, *stream, tc); err != nil {
		fmt.Fprintln(os.Stderr, "fixrepair:", err)
		os.Exit(1)
	}
}

// traceConfig carries the -trace flags.
type traceConfig struct {
	enabled bool
	sample  float64
	max     int
}

// newRecorder builds the run's chase recorder, or nil when nothing needs
// one. A streaming -log needs every change (rate 1, unlimited), which
// subsumes whatever -trace asked for; -trace alone gets its own sampling.
func (tc traceConfig) newRecorder(needLog bool) *fixrule.ChaseRecorder {
	if needLog {
		return fixrule.NewChaseRecorder(-1, 1, 0)
	}
	if tc.enabled {
		return fixrule.NewChaseRecorder(tc.max, tc.sample, 0)
	}
	return nil
}

func run(rulesPath, dataPath, outPath, logPath, alg string, workers, explain int, stream bool, tc traceConfig) error {
	if explain >= 0 && workers > 1 {
		return fmt.Errorf("-workers does not apply to -explain (provenance traces one row)")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var opts fixrule.StreamOptions
	if stream {
		if outPath == "" {
			return fmt.Errorf("-stream requires -out")
		}
		var err error
		if opts, err = streamFormats(dataPath, outPath); err != nil {
			return err
		}
	}
	rs, err := ruleio.LoadFile(rulesPath)
	if err != nil {
		return err
	}

	var algorithm = fixrule.Linear
	switch alg {
	case "linear", "lrepair":
	case "chase", "crepair":
		algorithm = fixrule.Chase
	default:
		return fmt.Errorf("unknown -alg %q (want linear or chase)", alg)
	}

	rep, err := fixrule.NewRepairer(rs)
	if err != nil {
		return err
	}

	if stream {
		in, err := os.Open(dataPath)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(outPath)
		if err != nil {
			return err
		}
		// The recorder gives streaming the -log support batch mode has: it
		// captures every change (global row numbers, any worker count), and
		// rec.Log() is exactly the entries a batch repair would write.
		rec := tc.newRecorder(logPath != "")
		opts.Workers, opts.Recorder = workers, rec
		start := time.Now()
		stats, err := rep.Stream(context.Background(), in, out, algorithm, opts)
		if err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Printf("streamed %d rows in %v (%s): %d tuples repaired with %d rule applications\n",
			stats.Rows, elapsed, tuplesPerSec(stats.Rows, elapsed), stats.Repaired, stats.Steps)
		if logPath != "" {
			if err := writeStreamLog(logPath, rec); err != nil {
				return err
			}
			fmt.Println("wrote", logPath)
		}
		if tc.enabled {
			printTraces(rec, tc)
		}
		return nil
	}

	rel, err := loadRelation(dataPath, rs.Schema())
	if err != nil {
		return err
	}

	if explain >= 0 {
		if explain >= rel.Len() {
			return fmt.Errorf("-explain row %d out of range (%d rows)", explain, rel.Len())
		}
		fmt.Print(rep.Explain(rel.Row(explain), algorithm))
		return nil
	}

	rec := tc.newRecorder(false)
	start := time.Now()
	res := rep.RepairRelation(rel, algorithm, fixrule.RelationOptions{Workers: workers, Recorder: rec})
	elapsed := time.Since(start)

	fmt.Printf("repaired %d rows with %d rules in %v (%s, %s)\n",
		rel.Len(), rs.Len(), elapsed, alg, tuplesPerSec(rel.Len(), elapsed))
	fmt.Printf("applied %d repairs across %d cells\n", res.Steps, len(res.Changed))
	printTopRules(res)

	if outPath != "" {
		if err := saveRelation(outPath, res.Relation); err != nil {
			return err
		}
		fmt.Println("wrote", outPath)
	}
	if logPath != "" {
		if err := writeLog(logPath, rel, res); err != nil {
			return err
		}
		fmt.Println("wrote", logPath)
	}
	if tc.enabled {
		printTraces(rec, tc)
	}
	return nil
}

// streamFormats maps -stream's file extensions to stream formats. frel is
// a batch format, so a *.frel path is refused here, before any input is
// read or output created.
func streamFormats(dataPath, outPath string) (fixrule.StreamOptions, error) {
	var opts fixrule.StreamOptions
	for _, p := range []string{dataPath, outPath} {
		if strings.HasSuffix(p, ".frel") {
			return opts, fmt.Errorf("-stream takes CSV or .fcol, not frel (%s): use a .fcol file, or drop -stream to repair frel in batch mode", p)
		}
	}
	if strings.HasSuffix(dataPath, ".fcol") {
		opts.In = fixrule.Fcol
	}
	if strings.HasSuffix(outPath, ".fcol") {
		opts.Out = fixrule.Fcol
	}
	if opts.In == fixrule.Fcol && opts.Out != fixrule.Fcol {
		return opts, fmt.Errorf(".fcol input requires a .fcol -out path")
	}
	return opts, nil
}

// printTraces renders the recorder's chase traces in the Explain
// vocabulary: one block per repaired tuple, one line per rule application.
//
// The recorder may be the unlimited rate-1 one a streaming -log run needs
// (it subsumes whatever -trace asked for), so the -trace-sample / -trace-max
// bounds are re-applied here: the same deterministic per-row decision the
// recorder itself would have made, and the cap over the row-sorted tuples.
// For a recorder that already sampled and capped, the filter is a no-op.
func printTraces(rec *fixrule.ChaseRecorder, tc traceConfig) {
	max := tc.max
	if max == 0 {
		max = fixrule.DefaultRecorderTuples
	}
	dropped := rec.DroppedTuples()
	var shown []fixrule.TupleTrace
	for _, tt := range rec.Tuples() {
		if !fixrule.SampleRow(tt.Row, tc.sample, 0) {
			continue
		}
		if max >= 0 && len(shown) >= max {
			dropped++
			continue
		}
		shown = append(shown, tt)
	}
	if len(shown) == 0 {
		fmt.Println("trace: no repaired tuples among the sampled rows")
		return
	}
	for _, tt := range shown {
		fmt.Printf("trace row %d (%d step(s)):\n", tt.Row, len(tt.Steps))
		for _, st := range tt.Steps {
			fmt.Printf("  %s: %s %q -> %q", st.Rule, st.Attr, st.From, st.To)
			if len(st.Evidence) > 0 {
				fmt.Printf("  because %s", strings.Join(st.Evidence, ", "))
			}
			fmt.Printf("  assured [%s]\n", strings.Join(st.Assured, " "))
		}
	}
	if dropped > 0 {
		fmt.Printf("trace: %d more repaired tuple(s) not shown (-trace-max %d reached)\n", dropped, max)
	}
}

// writeStreamLog writes the recorder's captured changes as a repair log,
// byte-compatible with the batch -log output and with -revert.
func writeStreamLog(path string, rec *fixrule.ChaseRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := repairlog.Write(f, rec.Log()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tuplesPerSec formats a repair throughput for the summary lines.
func tuplesPerSec(rows int, elapsed time.Duration) string {
	if elapsed <= 0 {
		return "∞ tuples/sec"
	}
	return fmt.Sprintf("%.0f tuples/sec", float64(rows)/elapsed.Seconds())
}

// runRevert undoes a previous repair run: the -log file is applied in
// reverse to the repaired relation, restoring the exact pre-repair state.
func runRevert(logPath, dataPath, outPath string) error {
	if outPath == "" {
		return fmt.Errorf("-revert requires -out")
	}
	f, err := os.Open(logPath)
	if err != nil {
		return err
	}
	entries, err := repairlog.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	// The repaired relation's schema is not known without rules; recover it
	// from the CSV header (or frel schema) by reading the raw file.
	rel, err := loadRelationAnySchema(dataPath)
	if err != nil {
		return err
	}
	if err := repairlog.Revert(rel, entries); err != nil {
		return err
	}
	if err := saveRelation(outPath, rel); err != nil {
		return err
	}
	fmt.Printf("reverted %d repair(s); wrote %s\n", len(entries), outPath)
	return nil
}

// loadRelationAnySchema reads a relation without a schema expectation: frel
// files are self-describing, and CSV headers define an ad-hoc schema.
func loadRelationAnySchema(path string) (*fixrule.Relation, error) {
	if strings.HasSuffix(path, ".frel") {
		return store.Load(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading CSV header: %w", err)
	}
	sch := fixrule.NewSchema("data", header...)
	rel := fixrule.NewRelation(sch)
	for {
		rec, err := cr.Read()
		if err != nil {
			break
		}
		rel.Append(fixrule.Tuple(rec))
	}
	return rel, nil
}

// loadRelation reads CSV or, for *.frel paths, the compact binary format.
// frel files carry their own schema, which must match the rules' schema.
func loadRelation(path string, sch *fixrule.Schema) (*fixrule.Relation, error) {
	if strings.HasSuffix(path, ".frel") {
		rel, err := store.Load(path)
		if err != nil {
			return nil, err
		}
		if !rel.Schema().Equal(sch) {
			return nil, fmt.Errorf("frel schema %s does not match rule schema %s", rel.Schema(), sch)
		}
		return rel, nil
	}
	return fixrule.LoadCSV(path, sch)
}

// saveRelation writes CSV or, for *.frel paths, the compact binary format.
func saveRelation(path string, rel *fixrule.Relation) error {
	if strings.HasSuffix(path, ".frel") {
		return store.Save(path, rel)
	}
	return fixrule.SaveCSV(path, rel)
}

// printTopRules lists the five most productive rules, mirroring the
// Figure 12(a) view.
func printTopRules(res *fixrule.RepairResult) {
	type rc struct {
		name string
		n    int
	}
	var rcs []rc
	for name, n := range res.PerRule {
		rcs = append(rcs, rc{name, n})
	}
	sort.Slice(rcs, func(i, j int) bool {
		if rcs[i].n != rcs[j].n {
			return rcs[i].n > rcs[j].n
		}
		return rcs[i].name < rcs[j].name
	})
	if len(rcs) > 5 {
		rcs = rcs[:5]
	}
	for _, r := range rcs {
		fmt.Printf("  %-12s corrected %d cell(s)\n", r.name, r.n)
	}
}

func writeLog(path string, before *fixrule.Relation, res *fixrule.RepairResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{"row", "attr", "old", "new"}); err != nil {
		f.Close()
		return err
	}
	for _, c := range res.Changed {
		if err := w.Write([]string{
			strconv.Itoa(c.Row), c.Attr,
			before.Get(c.Row, c.Attr), res.Relation.Get(c.Row, c.Attr),
		}); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
