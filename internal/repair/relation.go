package repair

import (
	"context"
	"io"

	"fixrule/internal/schema"
)

// This file is the relation engine: an in-memory relation as the third
// source on the chunk pipeline (pipeline.go). Units are row ranges of the
// input. A worker encodes a unit's rows through its scratch's pointer
// memo, chases them, and clones only repaired rows — from a private arena
// — into the shared output slice, at indices no other worker touches. The
// pipeline hands units to emit in input order, so appending each unit's
// (row, rule) repairs builds Result.Changed in row order with no merge.

// RelationOptions tunes RepairRelation.
type RelationOptions struct {
	// Workers is the repair worker count: <= 1 runs a sequential loop on
	// the caller's goroutine, n > 1 runs n workers. The Result is
	// identical at any count.
	Workers int
	// Recorder, when non-nil, captures per-tuple chase traces of repaired
	// rows, keyed by row number. With an unlimited tuple cap the traces are
	// identical at any worker count; with a finite cap the sampled rows are
	// the same, but which of them are admitted before the cap fills depends
	// on worker arrival order.
	Recorder *ChaseRecorder
}

// parallelChunk is the number of rows in one relation work unit. Small
// enough that skewed rows (a run of heavily-repaired tuples) spread over
// many units instead of landing in one worker, large enough that the
// per-unit channel hops and the chunk-boundary cache-line sharing on the
// shared output rows are noise.
const parallelChunk = 256

// relChunk is one relation work unit: input rows [lo, hi) and the repairs
// applied to them, in row then application order.
type relChunk struct {
	lo, hi int
	reps   []rowRepair
}

// relState is one relation worker's coded working set, its unit's coded
// rows, and the arena its repaired rows are cloned from. A unit is encoded
// whole before its rows are chased; with two workers on hosp that ran about
// 10% faster than encoding and chasing row by row. Only attributes Σ
// mentions are coded; the chase never reads the rest, so the buffer is
// never cleared.
type relState struct {
	sc    *codedScratch
	codes []uint32
	arena tupleArena
}

// RepairRelation repairs every tuple of rel with the chosen algorithm. The
// output shares every unchanged row with the input (see Result.Relation).
// At most one RelationOptions may be passed; without one the repair is
// sequential. Tuples are independent, so the Result is identical at any
// worker count.
func (r *Repairer) RepairRelation(rel *schema.Relation, alg Algorithm, opts ...RelationOptions) *Result {
	var o RelationOptions
	switch len(opts) {
	case 0:
	case 1:
		o = opts[0]
	default:
		panic("repair: RepairRelation takes at most one RelationOptions")
	}
	src := rel.Rows()
	n := len(src)
	rows := make([]schema.Tuple, n)
	copy(rows, src)
	res := &Result{}
	next := 0
	read := func(c *relChunk) (int, error) {
		if next == n {
			return 0, io.EOF
		}
		c.lo, c.hi = next, min(next+parallelChunk, n)
		next = c.hi
		return c.hi - c.lo, nil
	}
	emit := func(u *chunkUnit[relChunk]) error {
		for _, rr := range u.chunk.reps {
			res.Changed = append(res.Changed, schema.Cell{Row: u.rowBase + int(rr.row), Attr: r.rules[rr.pos].Target()})
		}
		return nil
	}
	process := func(st *relState, u *chunkUnit[relChunk], acc *streamAccData) {
		c := &u.chunk
		c.reps = c.reps[:0]
		acc.chunks++
		acc.rows += c.hi - c.lo
		arity := r.c.arity
		for i := c.lo; i < c.hi; i++ {
			r.c.encodeMemo(src[i], st.codes[(i-c.lo)*arity:], st.sc)
		}
		for i := c.lo; i < c.hi; i++ {
			row := st.codes[(i-c.lo)*arity : (i-c.lo+1)*arity]
			acc.oov += r.c.countOOVInto(row, acc.oovBy)
			applied := r.repairEncoded(row, st.sc, alg)
			if len(applied) == 0 {
				continue
			}
			acc.repaired++
			acc.steps += len(applied)
			out := st.arena.clone(src[i])
			for _, pos := range applied {
				rule := r.rules[pos]
				if o.Recorder != nil {
					o.Recorder.record(i, pos, rule, out[rule.TargetIndex()])
				}
				out[rule.TargetIndex()] = rule.Fact()
				c.reps = append(c.reps, rowRepair{row: int32(i - c.lo), pos: pos})
				acc.perRule[pos]++
			}
			rows[i] = out
		}
	}
	// A relation of one unit gains nothing from a pool.
	workers := max(min(o.Workers, (n+parallelChunk-1)/parallelChunk), 1)
	// read and emit never fail, and the context is never cancelled.
	stats, _ := streamChunks(context.Background(), r, nil, StreamOptions{Workers: workers}, read, emit,
		func() *relState { return &relState{sc: r.getScratch(), codes: make([]uint32, parallelChunk*r.c.arity)} },
		func(st *relState) { r.putScratch(st.sc) },
		process)
	res.StreamStats = *stats
	res.Relation = schema.FromRows(rel.Schema(), rows)
	return res
}

// tupleArena batch-allocates the cloned rows a worker materialises: one
// []string block per page instead of one allocation per repaired row.
// Carved tuples are full-capacity slices, so appends can never bleed into a
// neighbour.
type tupleArena struct {
	free []string
}

const arenaPageStrings = 4096

func (a *tupleArena) clone(t schema.Tuple) schema.Tuple {
	n := len(t)
	if len(a.free) < n {
		a.free = make([]string, max(arenaPageStrings, n))
	}
	out := schema.Tuple(a.free[:n:n])
	a.free = a.free[n:]
	copy(out, t)
	return out
}
