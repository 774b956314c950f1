package repair

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"fixrule/internal/schema"
	"fixrule/internal/store"
	"fixrule/internal/trace"
)

// This file is the streaming surface: the one entry point, Stream, and the
// chunk pipeline every stream runs on — a bounded unit pool, a reader
// goroutine, repair+render workers with private statistics, and a
// re-sequencing writer on the caller's goroutine. Two engines plug into
// it: the raw engine (rawcsv.go) for CSV to CSV, and the dictionary engine
// (columnar.go) for fcol output. lRepair and cRepair (Section 6) are
// defined one tuple at a time, so how a stream is parsed or chunked cannot
// change an output byte: the output and the StreamStats are identical at
// any worker count and chunk size, and equal to an in-memory
// RepairRelation over the same rows (FuzzStreamMatchesReference). Memory
// stays constant in the input size — at most 2*Workers+2 chunks exist at
// any moment — which suits the data-monitoring deployment the paper
// contrasts with editing rules: fixing rules repair a stream of incoming
// tuples with no user in the loop.

// Format names a stream encoding.
type Format int

const (
	// CSV is comma-separated text whose header row matches the rule
	// schema; a leading UTF-8 byte-order mark is ignored.
	CSV Format = iota
	// Fcol is the columnar chunk format of internal/store.
	Fcol
)

func (f Format) String() string {
	switch f {
	case CSV:
		return "csv"
	case Fcol:
		return "fcol"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// The default pipeline work units. A raw chunk costs little beyond its
// rows, so it stays small: a served body of a few thousand rows is then
// several chunks, and a request holds about as much memory in flight as a
// row-at-a-time loop would. A dictionary chunk pays a translation per
// distinct value and its fcol frame carries the chunk's dictionaries, so
// it is larger, for both to amortise.
const (
	defaultRawChunkRows  = 512
	defaultDictChunkRows = 4096
)

// streamWriteBufSize sizes the output buffer of the CSV writer; repaired
// chunks are rendered into worker-local buffers and the ordered writer
// just copies bytes, so a generous buffer batches syscalls.
const streamWriteBufSize = 1 << 18

// gaugeAdd is the hook the pipeline reports occupancy through; *obs.Gauge
// satisfies it without this package importing the metrics layer.
type gaugeAdd interface{ Add(int64) }

// StreamOptions selects a stream's formats and tunes its pipeline.
type StreamOptions struct {
	// In and Out are the input and output formats: CSV to CSV, CSV to
	// Fcol, or Fcol to Fcol. Fcol to CSV is rejected.
	In, Out Format
	// Workers is the repair worker count; <= 0 selects GOMAXPROCS, and 1
	// runs a fully sequential loop with no goroutines.
	Workers int
	// ChunkRows is the number of rows per pipeline work unit; <= 0 selects
	// the engine's default (512 rows to CSV, 4096 to fcol).
	ChunkRows int
	// QueueDepth, when non-nil, receives +1 when a chunk is queued for
	// repair and -1 when a worker picks it up (e.g. an *obs.Gauge).
	QueueDepth gaugeAdd
	// BusyWorkers, when non-nil, receives +1 when a worker starts repairing
	// a chunk and -1 when it finishes.
	BusyWorkers gaugeAdd
	// Recorder, when non-nil, captures per-tuple chase traces of repaired
	// rows. Row numbers are global input positions, so the recorded traces
	// are identical at any worker count.
	Recorder *ChaseRecorder
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ChunkRows <= 0 {
		o.ChunkRows = defaultDictChunkRows
		if o.Out == CSV {
			o.ChunkRows = defaultRawChunkRows
		}
	}
	return o
}

// StreamStats summarises a streaming repair run.
type StreamStats struct {
	// Rows is the number of tuples processed.
	Rows int
	// Repaired is the number of tuples changed by at least one rule.
	Repaired int
	// Steps is the total number of rule applications.
	Steps int
	// OOV is the number of Σ-relevant cells whose input values were outside
	// the ruleset's vocabulary (counted before repair).
	OOV int
	// OOVByAttr breaks OOV down by attribute name (nil when OOV is 0).
	OOVByAttr map[string]int
	// PerRule counts corrections per rule name.
	PerRule map[string]int
}

// Stream repairs the tuples read from r with the chosen algorithm and
// writes them, repaired and in input order, to w in opts.Out format. The
// input's header (CSV) or schema (Fcol) must match the repairer's. When
// ctx is cancelled or its deadline passes, the stream stops between
// chunks and the cause is returned (errors.Is-compatible with
// context.Canceled / context.DeadlineExceeded); a malformed row stops it
// with an error naming the row. Output already written is not retracted.
func (rp *Repairer) Stream(ctx context.Context, r io.Reader, w io.Writer, alg Algorithm, opts StreamOptions) (stats *StreamStats, err error) {
	opts = opts.withDefaults()
	sp, end := streamSpan(ctx, opts)
	defer func() { end(stats, err) }()
	switch {
	case opts.In == CSV && opts.Out == CSV:
		return rp.streamRaw(ctx, sp, r, w, alg, opts)
	case (opts.In == CSV || opts.In == Fcol) && opts.Out == Fcol:
		return rp.streamDict(ctx, sp, r, w, alg, opts)
	case opts.In == Fcol && opts.Out == CSV:
		return nil, errors.New("repair: an fcol stream repairs only to fcol")
	}
	return nil, fmt.Errorf("repair: unsupported stream formats %v to %v", opts.In, opts.Out)
}

// streamSpan opens the stream's span under the context's active span (nil
// — and free — when the request is untraced or unsampled) and returns the
// closer that stamps outcome attributes.
func streamSpan(ctx context.Context, opts StreamOptions) (*trace.Span, func(stats *StreamStats, err error)) {
	sp := trace.SpanFromContext(ctx).StartChild("repair.stream")
	sp.SetAttr(
		trace.String("in", opts.In.String()),
		trace.String("out", opts.Out.String()),
		trace.Int("workers", opts.Workers),
		trace.Int("chunk_rows", opts.ChunkRows),
	)
	return sp, func(stats *StreamStats, err error) {
		if err != nil {
			sp.SetError(err.Error())
		} else if stats != nil {
			sp.SetAttr(
				trace.Int("rows", stats.Rows),
				trace.Int("repaired", stats.Repaired),
				trace.Int("steps", stats.Steps),
				trace.Int("oov", stats.OOV),
			)
		}
		sp.End()
	}
}

// streamRaw is the CSV-to-CSV stream: the raw engine behind a buffered
// writer that already holds the canonical header.
func (rp *Repairer) streamRaw(ctx context.Context, sp *trace.Span, r io.Reader, w io.Writer, alg Algorithm, opts StreamOptions) (*StreamStats, error) {
	cr, header, err := rp.openChunkCSV(r)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(w, streamWriteBufSize)
	var hb []byte
	for i, a := range header {
		if i > 0 {
			hb = append(hb, ',')
		}
		hb = store.AppendCSVValue(hb, a)
	}
	if _, err := bw.Write(append(hb, '\n')); err != nil {
		return nil, err
	}
	read := func(c *store.RawChunk) (int, error) { return cr.ReadRawChunk(c, opts.ChunkRows) }
	emit := func(b []byte) error { _, err := bw.Write(b); return err }
	stats, err := streamChunks(ctx, rp, sp, opts, read, emit, rp.getScratch, rp.putScratch,
		func(sc *codedScratch, u *rawUnit, acc *streamAccData) {
			rp.repairRawChunk(&u.chunk, sc, alg, acc, opts.Recorder, u.rowBase)
			rp.buildSpans(u, sc.reps)
		})
	if err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return stats, nil
}

// streamDict is the fcol-output stream: CSV or fcol chunks in, repaired
// in dictionary form (repair facts join the chunk dictionaries), framed
// to w as fcol.
func (rp *Repairer) streamDict(ctx context.Context, sp *trace.Span, r io.Reader, w io.Writer, alg Algorithm, opts StreamOptions) (*StreamStats, error) {
	sch := rp.rs.Schema()
	var read func(*store.ColChunk) (int, error)
	if opts.In == Fcol {
		sc, err := store.NewChunkScanner(r)
		if err != nil {
			return nil, err
		}
		// Attribute lists must agree; the relation name is immaterial,
		// exactly as for a CSV header (which carries none), and the output
		// keeps the input's.
		if !attrsMatch(sc.Schema(), sch) {
			return nil, fmt.Errorf("repair: fcol schema %s does not match rule schema %s", sc.Schema(), sch)
		}
		sch = sc.Schema()
		read = sc.ReadChunk
	} else {
		// The chunked CSV reader dictionary-encodes each chunk; its
		// persistent global value ids let each distinct column value be
		// translated into Σ's vocabulary once per stream.
		cr, _, err := rp.openChunkCSV(r)
		if err != nil {
			return nil, err
		}
		read = func(c *store.ColChunk) (int, error) { return cr.ReadChunk(c, opts.ChunkRows) }
	}
	cw, err := store.NewChunkWriter(w, sch)
	if err != nil {
		return nil, err
	}
	stats, err := streamChunks(ctx, rp, sp, opts, read, cw.WriteFrame,
		func() *colScratch { return newColScratch(rp) },
		func(cs *colScratch) { cs.release(rp) },
		func(cs *colScratch, u *colUnit, acc *streamAccData) {
			rp.repairChunk(&u.chunk, cs, alg, acc, opts.Recorder, u.rowBase)
			u.out = store.AppendChunkFrame(u.out[:0], &u.chunk)
			u.spans = append(u.spans[:0], u.out)
		})
	if err != nil {
		return nil, err
	}
	if err := cw.Close(); err != nil {
		return nil, err
	}
	return stats, nil
}

// openChunkCSV opens a chunked CSV reader over r and validates the header
// against the repairer's schema.
func (rp *Repairer) openChunkCSV(r io.Reader) (*store.CSVChunkReader, []string, error) {
	sch := rp.rs.Schema()
	cr, header, err := store.NewCSVChunkReader(r, sch.Arity())
	if err != nil {
		return nil, nil, fmt.Errorf("repair: stream header: %w", err)
	}
	for i, a := range sch.Attrs() {
		if header[i] != a {
			return nil, nil, fmt.Errorf("repair: stream header field %d is %q, want %q", i, header[i], a)
		}
	}
	return cr, header, nil
}

// attrsMatch reports whether two schemas carry the same attribute list,
// ignoring the relation name.
func attrsMatch(a, b *schema.Schema) bool {
	if a.Arity() != b.Arity() {
		return false
	}
	for i, attr := range a.Attrs() {
		if b.Attrs()[i] != attr {
			return false
		}
	}
	return true
}

// chunkUnit is one pipeline work unit: a chunk plus its rendered output,
// reused through the fixed pool. spans is what the writer emits, in order;
// each span may view out or the chunk's own buffers (both stay untouched
// until the unit is recycled, which happens only after the emit).
type chunkUnit[C any] struct {
	seq     int64
	rowBase int
	chunk   C
	out     []byte
	spans   [][]byte
}

// streamAccData is one worker's private share of the final StreamStats.
// perRule is indexed by rule position and folded into the name-keyed map
// once at the end, so workers never touch a map or a lock.
type streamAccData struct {
	rows     int
	chunks   int
	repaired int
	steps    int
	oov      int
	oovBy    []int64
	perRule  []int32
}

// streamAcc pads the accumulator so workers writing adjacent slice entries
// never share a cache line.
//
//fix:padded
type streamAcc struct {
	streamAccData
	_ [64]byte
}

// newStreamAccs allocates n zeroed worker accumulators.
func (rp *Repairer) newStreamAccs(n int) []streamAcc {
	accs := make([]streamAcc, n)
	for i := range accs {
		accs[i].perRule = make([]int32, len(rp.rules))
		accs[i].oovBy = make([]int64, rp.c.arity)
	}
	return accs
}

// statsFromAccs folds per-worker accumulators into the final StreamStats;
// every statistic is an order-independent sum, so the result is identical
// at any worker count.
func (rp *Repairer) statsFromAccs(accs []streamAcc, rows int) *StreamStats {
	stats := &StreamStats{Rows: rows, PerRule: make(map[string]int)}
	total := make([]int64, len(rp.rules))
	oovBy := make([]int64, rp.c.arity)
	for wi := range accs {
		stats.Repaired += accs[wi].repaired
		stats.Steps += accs[wi].steps
		stats.OOV += accs[wi].oov
		for a, v := range accs[wi].oovBy {
			oovBy[a] += v
		}
		for pos, n := range accs[wi].perRule {
			total[pos] += int64(n)
		}
	}
	for pos, n := range total {
		if n > 0 {
			stats.PerRule[rp.rules[pos].Name()] = int(n)
		}
	}
	stats.OOVByAttr = rp.oovByAttr(oovBy)
	return stats
}

// streamChunks is the engine-agnostic pipeline: a bounded unit pool, a
// reader goroutine, repair+render workers, and a re-sequencing writer on
// the caller's goroutine. process repairs and renders one unit into
// u.spans using worker-local state S; newState/release bracket each
// worker's scratch lifetime. Each worker records a child span of sp.
// Workers == 1 short-circuits to a fully sequential loop.
func streamChunks[C, S any](ctx context.Context, rp *Repairer, sp *trace.Span, opts StreamOptions,
	read func(*C) (int, error), emit func([]byte) error,
	newState func() S, release func(S),
	process func(S, *chunkUnit[C], *streamAccData),
) (*StreamStats, error) {
	if opts.Workers == 1 {
		return streamChunksSeq(ctx, rp, read, emit, newState, release, process)
	}
	workers := opts.Workers

	// The fixed unit pool bounds memory: every unit is always in exactly
	// one place (recycle, work, a worker, done, or the writer's pending
	// window), so poolSize chunks is the high-water mark.
	poolSize := 2*workers + 2
	recycle := make(chan *chunkUnit[C], poolSize)
	for i := 0; i < poolSize; i++ {
		recycle <- &chunkUnit[C]{}
	}
	work := make(chan *chunkUnit[C], poolSize)
	done := make(chan *chunkUnit[C], poolSize)

	// readErr and rowsRead are written by the reader goroutine only; the
	// close(work) → workers drain → close(done) → writer-loop-exit chain
	// orders those writes before the caller reads them below.
	var readErr error
	rowsRead := 0
	go func() {
		defer close(work)
		seq := int64(0)
		for {
			if err := ctx.Err(); err != nil {
				readErr = fmt.Errorf("repair: stream cancelled at row %d: %w", rowsRead, err)
				return
			}
			u := <-recycle
			n, err := read(&u.chunk)
			if err == io.EOF {
				recycle <- u
				return
			}
			if err != nil {
				readErr = fmt.Errorf("repair: stream row %d: %w", rowsRead+1, err)
				recycle <- u
				return
			}
			u.seq = seq
			seq++
			u.rowBase = rowsRead
			rowsRead += n
			if opts.QueueDepth != nil {
				opts.QueueDepth.Add(1)
			}
			work <- u
		}
	}()

	accs := rp.newStreamAccs(workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(acc *streamAccData) {
			defer wg.Done()
			wsp := sp.StartChild("repair.worker")
			ws := newState()
			for u := range work {
				if opts.QueueDepth != nil {
					opts.QueueDepth.Add(-1)
				}
				if opts.BusyWorkers != nil {
					opts.BusyWorkers.Add(1)
				}
				process(ws, u, acc)
				if opts.BusyWorkers != nil {
					opts.BusyWorkers.Add(-1)
				}
				done <- u
			}
			release(ws)
			wsp.SetAttr(
				trace.Int("chunks", acc.chunks),
				trace.Int("rows", acc.rows),
				trace.Int("repaired", acc.repaired),
				trace.Int("steps", acc.steps),
			)
			wsp.End()
		}(&accs[wi].streamAccData)
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// Re-sequencing writer, on the caller's goroutine. After the first
	// write error the loop keeps draining (workers must never block on a
	// full done channel) but discards bytes.
	var writeErr error
	pending := make(map[int64]*chunkUnit[C], poolSize)
	next := int64(0)
	for u := range done {
		pending[u.seq] = u
		//fix:allow ctxpoll: drains the bounded pending map and exits when the next unit is absent; the reader already polls ctx per chunk
		for {
			c, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if writeErr == nil {
				for _, s := range c.spans {
					if writeErr = emit(s); writeErr != nil {
						break
					}
				}
			}
			recycle <- c // cap(recycle) == poolSize: never blocks
		}
	}

	if readErr != nil {
		return nil, readErr
	}
	if writeErr != nil {
		return nil, writeErr
	}
	return rp.statsFromAccs(accs, rowsRead), nil
}

// streamChunksSeq is the single-threaded pipeline: no goroutines, no
// channels — read, repair, render, emit.
func streamChunksSeq[C, S any](ctx context.Context, rp *Repairer,
	read func(*C) (int, error), emit func([]byte) error,
	newState func() S, release func(S),
	process func(S, *chunkUnit[C], *streamAccData),
) (*StreamStats, error) {
	accs := rp.newStreamAccs(1)
	ws := newState()
	defer release(ws)
	u := new(chunkUnit[C])
	rowBase := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("repair: stream cancelled at row %d: %w", rowBase, err)
		}
		n, err := read(&u.chunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("repair: stream row %d: %w", rowBase+1, err)
		}
		u.rowBase = rowBase
		rowBase += n
		process(ws, u, &accs[0].streamAccData)
		for _, s := range u.spans {
			if err := emit(s); err != nil {
				return nil, err
			}
		}
	}
	return rp.statsFromAccs(accs, rowBase), nil
}
