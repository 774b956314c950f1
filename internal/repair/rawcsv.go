package repair

import "fixrule/internal/store"

// This file is the raw streaming engine behind every CSV-to-CSV stream:
// CSV in, CSV out, with no value interning anywhere. The dictionary engine
// (columnar.go) pays one hash per distinct value per chunk, but for a
// text-to-text stream the intern tables themselves are the bottleneck —
// they are large, cold, and maintained per cell. Here each cell's bytes
// are coded directly into Σ's vocabulary (valueTable.codeB): those tables
// hold only rule constants, a few KB per attribute, and stay
// cache-resident for the whole stream. The exact anyRuleMatches predicate
// then limits the chase to rows that actually repair, repairs are recorded
// as (row, rule) pairs, and output is assembled as spans: maximal runs of
// clean canonical rows are zero-copy views into the chunk buffer, and only
// repaired or non-canonical rows are re-rendered. Strings are never
// materialised at all, except for recorder samples.

// rawUnit is the raw-chunk pipeline instantiation.
type rawUnit = chunkUnit[store.RawChunk]

// rawRepair records one applied rule: chunk-local row and rule position
// (target and fact resolve through the ruleset). repairRawChunk appends
// repairs in row order, which is the order the renderer walks.
type rawRepair struct {
	row int32
	pos int32
}

// codeRawRow codes the Σ-relevant cells of the raw row starting at cell
// index off into row, OR-ing together the cells' flags and adding
// out-of-vocabulary counts to oovBy. Returns the OR and the row's OOV
// count.
//
//fix:hotpath
func (c *compiled) codeRawRow(buf []byte, ends []int32, off int, row []uint32, oovBy []int64) (uint8, int) {
	hit := uint8(0)
	n := 0
	for _, a := range c.relevant {
		idx := off + int(a)
		start := int32(0)
		if idx > 0 {
			start = ends[idx-1] + 1 // one past the separator
		}
		cd := c.tables[a].codeB(buf[start:ends[idx]])
		row[a] = cd
		f := c.cellFlags[a][cd]
		hit |= f
		k := int(f & cellOOV)
		n += k
		oovBy[a] += int64(k)
	}
	return hit, n
}

// repairRawChunk repairs one raw chunk: code each row straight into Σ's
// vocabulary, skip rows that cannot match (no evidence-starting cell, or
// the exact predicate says no rule applies), chase the survivors, and
// record the applied rules into sc.reps.
func (rp *Repairer) repairRawChunk(c *store.RawChunk, sc *codedScratch, alg Algorithm, acc *streamAccData, rec *ChaseRecorder, rowBase int) {
	eng := rp.c
	acc.chunks++
	acc.rows += c.Rows
	reps := sc.reps[:0]
	row := sc.row
	for i := 0; i < c.Rows; i++ {
		hit, oov := eng.codeRawRow(c.Buf, c.Ends, i*c.Arity, row, acc.oovBy)
		acc.oov += oov
		if hit&cellEvStart == 0 {
			continue
		}
		if !eng.anyRuleMatches(row) {
			continue // exact: the chase would apply nothing (see compile.go)
		}
		applied := rp.repairEncoded(row, sc, alg)
		if len(applied) == 0 {
			continue
		}
		acc.repaired++
		acc.steps += len(applied)
		for _, pos := range applied {
			if rec != nil {
				rule := rp.rules[pos]
				rec.record(rowBase+i, pos, rule, string(c.Cell(i, rule.TargetIndex())))
			}
			reps = append(reps, rawRepair{row: int32(i), pos: pos})
			acc.perRule[pos]++
		}
	}
	sc.reps = reps
}

// renderRawRow re-renders one row cell by cell, substituting the facts of
// the row's repairs. At most one repair targets a given cell (an applied
// target becomes assured), so the first match wins.
//
//fix:hotpath
func (rp *Repairer) renderRawRow(dst []byte, c *store.RawChunk, i int, rowReps []rawRepair) []byte {
	off := i * c.Arity
	cstart, _ := c.RowSpan(i)
	for a := 0; a < c.Arity; a++ {
		if a > 0 {
			dst = append(dst, ',')
		}
		end := c.Ends[off+a]
		fixed := false
		for _, rr := range rowReps {
			if int(rp.c.rules[rr.pos].target) == a {
				dst = store.AppendCSVValue(dst, rp.rules[rr.pos].Fact())
				fixed = true
				break
			}
		}
		if !fixed {
			dst = store.AppendCSVValueBytes(dst, c.Buf[cstart:end])
		}
		cstart = end + 1
	}
	return append(dst, '\n')
}

// buildSpans assembles the unit's output: a fully clean chunk is one
// zero-copy span of its buffer; otherwise maximal runs of clean canonical
// rows become buffer views and the repaired or non-canonical rows between
// them are re-rendered into u.out. u.out is sized up front from a safe
// per-row bound (quoting at most doubles a field and adds two quotes) so
// the recorded views never move.
func (rp *Repairer) buildSpans(u *rawUnit, reps []rawRepair) {
	c := &u.chunk
	spans := u.spans[:0]
	if c.AllPlain && len(reps) == 0 {
		if len(c.Buf) > 0 {
			spans = append(spans, c.Buf)
		}
		u.spans = spans
		return
	}
	need := 0
	ri := 0
	for i := 0; i < c.Rows; i++ {
		r0 := ri
		for ri < len(reps) && int(reps[ri].row) == i {
			need += 2*len(rp.rules[reps[ri].pos].Fact()) + 2
			ri++
		}
		if r0 != ri || c.Plain[i] == 0 {
			s, e := c.RowSpan(i)
			need += 2*int(e-s) + 2*c.Arity + 2
		}
	}
	out := u.out[:0]
	if cap(out) < need {
		nc := 2 * cap(out)
		if nc < need {
			nc = need
		}
		out = make([]byte, 0, nc)
	}
	ri = 0
	runStart := int32(0)
	for i := 0; i < c.Rows; i++ {
		r0 := ri
		for ri < len(reps) && int(reps[ri].row) == i {
			ri++
		}
		if r0 == ri && c.Plain[i] == 1 {
			continue // extends the current clean run
		}
		s, e := c.RowSpan(i)
		if s > runStart {
			spans = append(spans, c.Buf[runStart:s])
		}
		runStart = e
		o0 := len(out)
		out = rp.renderRawRow(out, c, i, reps[r0:ri])
		spans = append(spans, out[o0:len(out)])
	}
	if int(runStart) < len(c.Buf) {
		spans = append(spans, c.Buf[runStart:])
	}
	u.out, u.spans = out, spans
}
