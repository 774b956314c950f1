package repair

import "fixrule/internal/store"

// This file is the dictionary engine behind every fcol-output stream: it
// consumes column chunks (store.ColChunk) and translates each chunk's
// local dictionaries to Σ codes once — one valueTable lookup per *distinct*
// value per chunk instead of one per cell. A per-dictionary-entry flag
// vector then drives a branch-light prefilter over the []int32 code
// columns: every rule has evidence, so a row can only be repaired if some
// cell's code starts a non-empty inverted list (cellEvStart); rows — and
// whole chunks — without one skip straight past the chase. Surviving rows
// get the exact anyRuleMatches test (see compile.go for why it is exact on
// fresh rows), so the chase itself runs only on rows that actually repair.

// colScratch is one worker's columnar working set. It lives for one stream
// (not pooled across streams: byGlobal caches translations keyed by the
// stream's CSV reader's global value ids, which are meaningless outside it).
type colScratch struct {
	sc *codedScratch
	// xlat, per relevant-attribute slot, maps a chunk's local dictionary
	// codes to Σ codes; rebuilt per chunk, capacity reused.
	xlat [][]uint32
	// flags is the per-dictionary-entry prefilter vector of the column
	// currently being scanned — compiled.cellFlags resolved through the
	// chunk dictionary: bit 0 = out of vocabulary, bit 1 = the Σ code
	// starts a non-empty inverted list.
	flags []uint8
	// active marks rows with at least one evidence-starting cell; only
	// those can match any rule.
	active []uint8
	// byGlobal, per relevant-attribute slot, caches gid → Σ code + 1 across
	// chunks (0 = not yet translated), keyed by the CSV chunk reader's
	// persistent per-column value identities.
	byGlobal [][]uint32
	// factLoc/factEpoch cache each rule's fact's local code in the current
	// chunk, so a rule repairing many rows appends its fact to the chunk
	// dictionary once.
	factLoc   []int32
	factEpoch []int64
	epoch     int64
}

func newColScratch(rp *Repairer) *colScratch {
	nRel := len(rp.c.relevant)
	n := len(rp.rules)
	return &colScratch{
		sc:        rp.getScratch(),
		xlat:      make([][]uint32, nRel),
		byGlobal:  make([][]uint32, nRel),
		factLoc:   make([]int32, n),
		factEpoch: make([]int64, n),
	}
}

func (cs *colScratch) release(rp *Repairer) {
	rp.putScratch(cs.sc)
	cs.sc = nil
}

// translateCol builds slot k's local-code → Σ-code table and prefilter
// flags for one column dictionary. Chunks from the CSV reader carry global
// value ids, so across chunks each distinct column value is hashed into the
// valueTable once ever; wire-decoded chunks fall back to one lookup per
// distinct value per chunk. Returns whether any entry starts an inverted
// list (i.e. whether any row of this column could contribute to a match).
func (cs *colScratch) translateCol(k int, c *compiled, a int32, col *store.Column) bool {
	tbl, cell := c.tables[a], c.cellFlags[a]
	xlat := cs.xlat[k][:0]
	flags := cs.flags[:0]
	bg := cs.byGlobal[k]
	useBG := len(col.Global) == len(col.Dict)
	anyEv := false
	for j, v := range col.Dict {
		var code uint32
		gid := int32(-1)
		if useBG {
			gid = col.Global[j]
		}
		if gid >= 0 && int(gid) < len(bg) && bg[gid] != 0 {
			code = bg[gid] - 1
		} else {
			code = tbl.code(v)
			if gid >= 0 {
				for int(gid) >= len(bg) {
					bg = append(bg, 0)
				}
				bg[gid] = code + 1
			}
		}
		xlat = append(xlat, code)
		f := cell[code]
		anyEv = anyEv || f&cellEvStart != 0
		flags = append(flags, f)
	}
	cs.xlat[k], cs.flags, cs.byGlobal[k] = xlat, flags, bg
	return anyEv
}

// scanColumnCodes sweeps one code column, OR-ing each row's evidence-start
// bit into active and counting out-of-vocabulary cells — the prefilter hot
// loop: two byte loads, an OR, and an add per cell, no branches.
//
//fix:hotpath
func scanColumnCodes(codes []int32, flags []uint8, active []uint8) int {
	n := 0
	for i, cd := range codes {
		f := flags[cd]
		active[i] |= f >> 1
		n += int(f & 1)
	}
	return n
}

// gatherRow assembles one row's Σ codes from the translated columns.
//
//fix:hotpath
func gatherRow(row []uint32, xlat [][]uint32, cols []store.Column, relevant []int32, i int) {
	for k, a := range relevant {
		row[a] = xlat[k][cols[a].Codes[i]]
	}
}

// repairChunk repairs one chunk in place: translate dictionaries, prefilter
// rows, chase only the survivors, and write applied facts back as chunk
// dictionary entries. rowBase is the chunk's global input position, so
// recorded traces are identical at any worker count.
func (rp *Repairer) repairChunk(c *store.ColChunk, cs *colScratch, alg Algorithm, acc *streamAccData, rec *ChaseRecorder, rowBase int) {
	eng := rp.c
	acc.chunks++
	acc.rows += c.Rows
	cs.epoch++
	if cap(cs.active) < c.Rows {
		cs.active = make([]uint8, c.Rows)
	} else {
		cs.active = cs.active[:c.Rows]
		for i := range cs.active {
			cs.active[i] = 0
		}
	}
	anyHit := false
	for k, a := range eng.relevant {
		col := &c.Cols[a]
		if cs.translateCol(k, eng, a, col) {
			anyHit = true
		}
		if n := scanColumnCodes(col.Codes, cs.flags, cs.active); n > 0 {
			acc.oov += n
			acc.oovBy[a] += int64(n)
		}
	}
	if !anyHit {
		return // no cell of this chunk starts any rule's inverted list
	}
	sc := cs.sc
	for i := 0; i < c.Rows; i++ {
		if cs.active[i] == 0 {
			continue
		}
		gatherRow(sc.row, cs.xlat, c.Cols, eng.relevant, i)
		if !eng.anyRuleMatches(sc.row) {
			continue // exact: the chase would apply nothing (see compile.go)
		}
		applied := rp.repairEncoded(sc.row, sc, alg)
		if len(applied) == 0 {
			continue
		}
		acc.repaired++
		acc.steps += len(applied)
		c.EchoOK = false
		c.MarkDirty(i)
		for _, pos := range applied {
			rule := rp.rules[pos]
			col := &c.Cols[rule.TargetIndex()]
			if rec != nil {
				rec.record(rowBase+i, pos, rule, col.Dict[col.Codes[i]])
			}
			lc := cs.factLoc[pos]
			if cs.factEpoch[pos] != cs.epoch {
				lc = col.AppendExtra(rule.Fact())
				cs.factLoc[pos] = lc
				cs.factEpoch[pos] = cs.epoch
			}
			col.Codes[i] = lc
			acc.perRule[pos]++
		}
	}
}

// colUnit is the dictionary-chunk pipeline instantiation.
type colUnit = chunkUnit[store.ColChunk]
