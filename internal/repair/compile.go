package repair

import (
	"sort"
	"unsafe"

	"fixrule/internal/core"
	"fixrule/internal/schema"
	"fixrule/internal/store"
)

// This file is the compiled repair engine. At NewRepairer time every
// constant appearing in Σ — evidence values, negative patterns, facts — is
// interned into a per-attribute dictionary (string → uint32), rules are
// compiled to integer form, and the inverted lists become flat slices
// indexed by [attribute][code]. Both algorithms then run entirely on
// []uint32 coded tuples: encoding is one dictionary lookup per cell at the
// batch boundary, and everything inside the chase is integer compares and
// slice indexing with zero steady-state allocations.
//
// Code 0 (oov) is reserved for values outside Σ's vocabulary for that
// attribute. This is sound: matching only ever compares a tuple cell
// against a constant of Σ (evidence equality, negative-pattern membership),
// never cell against cell, so any two out-of-vocabulary values are
// interchangeable — neither can ever satisfy a pattern. Interned codes
// start at 1, so oov never collides.

// oov is the reserved "not in Σ's vocabulary" code.
const oov uint32 = 0

// compiledRule is the integer form of a fixing rule.
type compiledRule struct {
	evAttrs  []int32  // schema positions of X, ascending
	evCodes  []uint32 // tp[X] codes, parallel to evAttrs
	target   int32    // schema position of B
	factCode uint32   // tp+[B] code (interned in B's dictionary)
	negCodes []uint32 // Tp[B] codes, sorted ascending
}

// matches reports t ⊢ φ on a coded tuple: evidence equality plus
// negative-pattern membership, all integer compares.
func (cr *compiledRule) matches(row []uint32) bool {
	for i, a := range cr.evAttrs {
		if row[a] != cr.evCodes[i] {
			return false
		}
	}
	return containsCode(cr.negCodes, row[cr.target])
}

// containsCode reports membership of v in the sorted code slice s. Small
// sets scan linearly (typical Tp[B] has a handful of entries); larger sets
// binary-search.
func containsCode(s []uint32, v uint32) bool {
	if v == oov {
		return false // interned codes start at 1
	}
	if len(s) <= 8 {
		for _, x := range s {
			if x == v {
				return true
			}
		}
		return false
	}
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == v
}

// slot is one entry of a valueTable: the interned string, its sample tag
// (the hash's a-sample, see store.SampleHash) and its code. For keys of at
// most 8 bytes the tag covers every byte, so tag plus length equality IS
// string equality and a probe never dereferences the key at all; longer
// keys use the tag as a first-word prefilter before the full compare.
type slot struct {
	key  string
	tag  uint64
	code uint32 // 0 marks an empty slot (interned codes start at 1)
}

// valueTable is a frozen open-addressed string → code dictionary, built once
// at compile time. Σ's per-attribute vocabularies are tiny (tens to a few
// hundred values) and never change after compilation, so a power-of-two
// table at ≤ 50% load with linear probing beats the general-purpose map on
// the encode hot path: the hash samples only the length and the first and
// last eight bytes, and a probe touches one 32-byte slot.
//
// Sampling is safe — a false hash match only costs the string compare that
// the probe does anyway; a miss lands on an empty slot and returns oov.
type valueTable struct {
	mask      uint32
	slots     []slot
	emptyCode uint32 // code of the empty string, which cannot occupy a slot
}

// newValueTable freezes an interning map into a lookup table.
func newValueTable(m map[string]uint32) *valueTable {
	size := uint32(4)
	for size < uint32(len(m))*2 {
		size *= 2
	}
	t := &valueTable{mask: size - 1, slots: make([]slot, size)}
	for k, code := range m {
		if len(k) == 0 {
			t.emptyCode = code
			continue
		}
		h, tag := store.SampleHash(k)
		i := h & t.mask
		for t.slots[i].code != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = slot{key: k, tag: tag, code: code}
	}
	return t
}

// code returns the interned code of s, or oov when s is outside the
// vocabulary.
//
//fix:hotpath
func (t *valueTable) code(s string) uint32 {
	if len(s) == 0 {
		return t.emptyCode
	}
	h, tag := store.SampleHash(s)
	i := h & t.mask
	for {
		sl := &t.slots[i]
		if sl.code == 0 {
			return oov
		}
		if sl.tag == tag && sl.key == s {
			return sl.code
		}
		i = (i + 1) & t.mask
	}
}

// keyEqTail reports s == string(b) for keys already known to agree on
// length and on their first 8 bytes (the slot tag), so it compares from
// byte 8 on, a word at a time with an overlapping final load. Requires
// len(s) == len(b) > 8. No string is ever materialised.
func keyEqTail(s string, b []byte) bool {
	n := len(b)
	i := 8
	for ; i+8 <= n; i += 8 {
		if store.Load64(s, i) != store.Load64(b, i) {
			return false
		}
	}
	return i >= n || store.Load64(s, n-8) == store.Load64(b, n-8)
}

// codeB is code for a raw byte-slice cell: the same probe sequence, with
// the key compare done byte-against-string so no string is ever allocated.
// This is what lets the raw streaming path code CSV cells straight into
// Σ's vocabulary without interning them first. A probe compares the slot
// tag and the length first — for keys of at most 8 bytes that alone
// decides equality, and only longer keys read the interned string.
//
//fix:hotpath
func (t *valueTable) codeB(b []byte) uint32 {
	n := len(b)
	if n == 0 {
		return t.emptyCode
	}
	h, tag := store.SampleHash(b)
	i := h & t.mask
	for {
		sl := &t.slots[i]
		if sl.code == 0 {
			return oov
		}
		if sl.tag == tag && len(sl.key) == n && (n <= 8 || keyEqTail(sl.key, b)) {
			return sl.code
		}
		i = (i + 1) & t.mask
	}
}

// compiled is the dictionary-encoded form of a ruleset.
type compiled struct {
	arity    int
	words    int           // assured-bitset words: ceil(arity/64)
	relevant []int32       // attributes mentioned by Σ, ascending
	tables   []*valueTable // per attribute: frozen value → code; nil if unused by Σ
	rules    []compiledRule
	// The inverted lists — key (A, a) → rules with A ∈ Xφ and tp[A] = a —
	// in CSR form: listOff[A][code] and listOff[A][code+1] delimit the rule
	// positions in listFlat. Code 0 (oov) is always an empty range; listOff
	// is nil for attributes Σ never mentions.
	listOff  [][]int32
	listFlat []int32
	// cellFlags[A][code] classifies codes for the columnar fast paths:
	// bit 0 (cellOOV) marks code 0, so per-column OOV accounting is a flag
	// sum instead of a compare; bit 1 (cellEvStart) marks codes whose
	// inverted list (A, code) is non-empty — the only cells that can seed a
	// rule match, and therefore the only entry points anyRuleMatches probes.
	// nil for attributes Σ never mentions.
	cellFlags [][]uint8
}

const (
	cellOOV     = 1 << 0
	cellEvStart = 1 << 1
)

// list returns the inverted list of (a, code).
func (c *compiled) list(a int32, code uint32) []int32 {
	o := c.listOff[a]
	return c.listFlat[o[code]:o[code+1]]
}

// anyRuleMatches reports whether some rule of Σ properly applies to the
// freshly encoded row: all its evidence cells match and the target cell
// holds one of its negative patterns. For a fresh row this is an exact
// repair predicate, not a heuristic, in both directions:
//
//   - If it returns true, the chase's first scan finds a matching rule and
//     applies it, so the row is repaired.
//   - If the chase (or lRepair) applies any rule, its first applied rule
//     matched the row state at application time — and before the first
//     application that state is exactly the input codes — so some rule
//     fully matches the original row and this returns true.
//
// Every rule has non-empty evidence (core.New rejects the contrary), so
// probing the inverted lists of the row's own codes visits every rule that
// could match; the cellEvStart flag skips cells with no list at all. On
// typical noisy data only a few percent of rows pass, and everything else
// skips the chase entirely.
//
//fix:hotpath
func (c *compiled) anyRuleMatches(row []uint32) bool {
	for _, a := range c.relevant {
		code := row[a]
		if c.cellFlags[a][code]&cellEvStart == 0 {
			continue
		}
		for _, pos := range c.list(a, code) {
			if c.rules[pos].matches(row) {
				return true
			}
		}
	}
	return false
}

// compileRules interns Σ's constants and builds the integer rule forms and
// flat inverted lists.
func compileRules(rs *core.Ruleset) *compiled {
	sch := rs.Schema()
	rules := rs.Rules()
	c := &compiled{
		arity:     sch.Arity(),
		words:     (sch.Arity() + 63) / 64,
		tables:    make([]*valueTable, sch.Arity()),
		rules:     make([]compiledRule, len(rules)),
		listOff:   make([][]int32, sch.Arity()),
		cellFlags: make([][]uint8, sch.Arity()),
	}
	dicts := make([]map[string]uint32, sch.Arity())
	intern := func(attr int, v string) uint32 {
		d := dicts[attr]
		if d == nil {
			d = make(map[string]uint32)
			dicts[attr] = d
		}
		if code, ok := d[v]; ok {
			return code
		}
		code := uint32(len(d) + 1)
		d[v] = code
		return code
	}
	for pos, r := range rules {
		cr := &c.rules[pos]
		cr.target = int32(r.TargetIndex())
		cr.factCode = intern(r.TargetIndex(), r.Fact())
		for _, a := range r.EvidenceAttrs() {
			v, _ := r.EvidenceValue(a)
			idx := sch.Index(a)
			cr.evAttrs = append(cr.evAttrs, int32(idx))
			cr.evCodes = append(cr.evCodes, intern(idx, v))
		}
		for _, v := range r.NegativePatterns() {
			cr.negCodes = append(cr.negCodes, intern(r.TargetIndex(), v))
		}
		sort.Slice(cr.negCodes, func(i, j int) bool { return cr.negCodes[i] < cr.negCodes[j] })
	}
	lists := make([][][]int32, c.arity)
	for a := 0; a < c.arity; a++ {
		if dicts[a] == nil {
			continue
		}
		c.relevant = append(c.relevant, int32(a))
		c.tables[a] = newValueTable(dicts[a])
		lists[a] = make([][]int32, len(dicts[a])+1)
		flags := make([]uint8, len(dicts[a])+1)
		flags[oov] = cellOOV
		c.cellFlags[a] = flags
	}
	for pos := range c.rules {
		cr := &c.rules[pos]
		for i, a := range cr.evAttrs {
			lists[a][cr.evCodes[i]] = append(lists[a][cr.evCodes[i]], int32(pos))
		}
	}
	// Flatten to CSR so a list lookup on the hot path is two adjacent int32
	// loads instead of chasing a slice header.
	for _, a := range c.relevant {
		off := make([]int32, len(lists[a])+1)
		off[0] = int32(len(c.listFlat))
		for code, l := range lists[a] {
			off[code+1] = off[code] + int32(len(l))
			c.listFlat = append(c.listFlat, l...)
			if len(l) > 0 {
				c.cellFlags[a][code] |= cellEvStart
			}
		}
		c.listOff[a] = off
	}
	return c
}

// encodeInto writes t's codes for the attributes Σ mentions into row.
// Positions Σ never mentions are left untouched: the chase never reads
// them (every evidence and target attribute has a dictionary).
//
//fix:hotpath
func (c *compiled) encodeInto(t schema.Tuple, row []uint32) {
	for _, a := range c.relevant {
		row[a] = c.tables[a].code(t[a]) // missing → oov
	}
}

// countOOV reports how many Σ-relevant cells of an encoded row hold the
// out-of-vocabulary code — cells no rule can read as evidence or repair.
// It only inspects relevant attributes (the rest of the row is stale pool
// memory) and must run before the chase, which overwrites repaired cells
// with in-vocabulary fact codes.
//
//fix:hotpath
func (c *compiled) countOOV(row []uint32) int {
	n := 0
	for _, a := range c.relevant {
		if row[a] == oov {
			n++
		}
	}
	return n
}

// The batch encoder short-circuits repeated cell values with a pointer memo:
// relations share string backing heavily (a dimension value is typically one
// string object referenced by many rows), so a cell whose string object was
// already encoded skips both the hash and the string-byte compare entirely.
// The memo lives in the per-goroutine scratch — no synchronisation — as one
// direct-mapped page per relevant attribute. Each entry stores the interned
// string itself, not a bare address: the entry keeps its string reachable,
// and Go's collector never moves heap objects, so matching the data pointer
// (plus length, since substrings share backing) proves the cell is that very
// string and the cached code is valid — across batches, with no invalidation
// protocol. A value that dies with its relation merely occupies a slot until
// it is overwritten or the pool drops the scratch at the next GC cycle.
const (
	encPageBits = 12
	encPageSize = 1 << encPageBits
)

// encodeMemo is encodeInto through sc's pointer memo, for relation rows:
// the value tables are a few KB each and stay cache-resident across rows,
// while a cell whose string object was encoded before costs one compare.
//
//fix:hotpath
func (c *compiled) encodeMemo(t schema.Tuple, row []uint32, sc *codedScratch) {
	keys, encs := sc.encKeys, sc.encCodes
	for k, a := range c.relevant {
		s := t[a]
		if len(s) == 0 {
			row[a] = c.tables[a].emptyCode
			continue
		}
		p := unsafe.StringData(s)
		slot := k<<encPageBits | int(uintptr(unsafe.Pointer(p))>>4)&(encPageSize-1)
		if ek := keys[slot]; len(ek) == len(s) && unsafe.StringData(ek) == p {
			row[a] = encs[slot]
			continue
		}
		code := c.tables[a].code(s)
		keys[slot] = s
		encs[slot] = code
		row[a] = code
	}
}

// codedScratch is the reusable per-goroutine working set of the coded
// algorithms; pooling it keeps the steady-state chase allocation-free.
type codedScratch struct {
	row        []uint32 // single-tuple encode buffer (arity)
	assured    []uint64 // assured-attribute bitset (words)
	counters   []int32  // lRepair: evidence agreement count per rule
	checked    []bool   // lRepair: rule already verified once
	touched    []int32  // lRepair: dirtied counter positions, for O(touched) reset
	candidates []int32  // lRepair: rules whose counters reached |Xφ|
	pending    []int32  // cRepair: worklist of still-live rule positions
	applied    []int32  // applied rule positions, in application order
	encKeys    []string // batch-encode memo: interned strings, one page per relevant attr
	encCodes   []uint32 // codes parallel to encKeys

	// reps records the raw stream engine's applied rules in the current
	// chunk (rawcsv.go).
	reps []rowRepair
}

func (sc *codedScratch) resetAssured() {
	for i := range sc.assured {
		sc.assured[i] = 0
	}
}

func (sc *codedScratch) assure(attr int32) {
	sc.assured[attr>>6] |= 1 << (uint(attr) & 63)
}

func (sc *codedScratch) isAssured(attr int32) bool {
	return sc.assured[attr>>6]&(1<<(uint(attr)&63)) != 0
}

// bump is lRepair's counter increment (lines 4-6 / 13-15 of Figure 7).
func (sc *codedScratch) bump(pos int32, needed []int32) {
	if sc.counters[pos] == 0 {
		sc.touched = append(sc.touched, pos)
	}
	sc.counters[pos]++
	if sc.counters[pos] == needed[pos] && !sc.checked[pos] {
		sc.candidates = append(sc.candidates, pos)
	}
}

// repairEncoded repairs a coded tuple in place and returns the positions of
// the applied rules in application order. The returned slice aliases
// sc.applied and is valid until the scratch is reused.
//
//fix:hotpath
func (r *Repairer) repairEncoded(row []uint32, sc *codedScratch, alg Algorithm) []int32 {
	if alg == Linear {
		return r.linearCoded(row, sc)
	}
	return r.chaseCoded(row, sc)
}

// chaseCoded is cRepair (Figure 6) on codes: while some unused rule
// properly applies, apply it. A worklist replaces the full-Σ rescans:
// applied rules and rules whose target is assured are dropped (the assured
// set only grows, so they can never properly apply again), which preserves
// the exact fix sequence while skipping dead rules in later passes.
func (r *Repairer) chaseCoded(row []uint32, sc *codedScratch) []int32 {
	c := r.c
	sc.resetAssured()
	pending := sc.pending[:0]
	for pos := range c.rules {
		pending = append(pending, int32(pos))
	}
	applied := sc.applied[:0]
	for updated := true; updated; {
		updated = false
		live := pending[:0] // in-place filter: write index never passes read index
		for _, pos := range pending {
			cr := &c.rules[pos]
			if sc.isAssured(cr.target) {
				continue // dead: drop from the worklist
			}
			if !cr.matches(row) {
				live = append(live, pos)
				continue
			}
			row[cr.target] = cr.factCode
			for _, a := range cr.evAttrs {
				sc.assure(a)
			}
			sc.assure(cr.target)
			applied = append(applied, pos)
			updated = true // applied rules are not kept: used at most once
		}
		pending = live
	}
	sc.pending = pending
	sc.applied = applied
	return applied
}

// linearCoded is lRepair (Figure 7) on codes. Counters track how many
// evidence attributes of each rule the current tuple agrees with; a rule
// becomes a candidate when its counter reaches |Xφ|. After each update
// t[B] := fact only the inverted list of (B, fact) is consulted, so each
// rule's counter is touched at most |Xφ| times and total work is
// O(size(Σ)) — now with integer list indexing instead of string hashing.
func (r *Repairer) linearCoded(row []uint32, sc *codedScratch) []int32 {
	c := r.c
	sc.resetAssured()
	sc.candidates = sc.candidates[:0]
	sc.touched = sc.touched[:0]
	applied := sc.applied[:0]

	// Initialise counters from the dirty tuple (lines 2-7).
	for _, a := range c.relevant {
		code := row[a]
		if code == oov {
			continue
		}
		for _, p := range c.list(a, code) {
			sc.bump(p, r.needed)
		}
	}

	for len(sc.candidates) > 0 {
		pos := sc.candidates[len(sc.candidates)-1]
		sc.candidates = sc.candidates[:len(sc.candidates)-1]
		if sc.checked[pos] {
			continue
		}
		sc.checked[pos] = true // once checked, never revisited (§6.2)
		cr := &c.rules[pos]
		if sc.isAssured(cr.target) || !cr.matches(row) {
			continue
		}
		row[cr.target] = cr.factCode
		for _, a := range cr.evAttrs {
			sc.assure(a)
		}
		sc.assure(cr.target)
		applied = append(applied, pos)
		// The update may complete other rules' evidence (lines 13-15).
		for _, p := range c.list(cr.target, cr.factCode) {
			if !sc.checked[p] {
				sc.bump(p, r.needed)
			}
		}
	}

	// Reset only the entries this repair dirtied, then hand the scratch back.
	for _, pos := range sc.touched {
		sc.counters[pos] = 0
		sc.checked[pos] = false
	}
	sc.applied = applied
	return applied
}

// getScratch and putScratch wrap the sync.Pool with the concrete type.
func (r *Repairer) getScratch() *codedScratch   { return r.scratch.Get().(*codedScratch) }
func (r *Repairer) putScratch(sc *codedScratch) { r.scratch.Put(sc) }

// EncodeTuple dictionary-encodes t, reusing dst when it has capacity.
// Cells holding values outside Σ's vocabulary (or belonging to attributes Σ
// never mentions) encode to code 0. Pair with RepairEncoded for
// allocation-free streaming repair.
func (r *Repairer) EncodeTuple(t schema.Tuple, dst []uint32) []uint32 {
	if len(t) != r.c.arity {
		panic("repair: EncodeTuple arity mismatch")
	}
	if cap(dst) < r.c.arity {
		dst = make([]uint32, r.c.arity)
	}
	dst = dst[:r.c.arity]
	for i := range dst {
		dst[i] = oov
	}
	r.c.encodeInto(t, dst)
	return dst
}

// RepairEncoded repairs a coded tuple in place with the chosen algorithm
// and appends the positions of the applied rules (resolve with RuleAt) to
// applied, which is truncated first and returned. With a capacious applied
// buffer the call performs zero allocations in steady state.
func (r *Repairer) RepairEncoded(row []uint32, alg Algorithm, applied []int32) []int32 {
	sc := r.getScratch()
	out := r.repairEncoded(row, sc, alg)
	applied = append(applied[:0], out...)
	r.putScratch(sc)
	return applied
}

// RuleAt returns the rule at position pos in Σ's order, resolving the
// positions reported by RepairEncoded.
func (r *Repairer) RuleAt(pos int) *core.Rule { return r.rules[pos] }

// OOVCells reports how many of t's Σ-relevant cells hold values outside
// the ruleset's vocabulary. Such cells carry no evidence and can never be
// repaired; a rising OOV rate in production means the ruleset has drifted
// from the data.
func (r *Repairer) OOVCells(t schema.Tuple) int {
	sc := r.getScratch()
	r.c.encodeInto(t, sc.row)
	n := r.c.countOOV(sc.row)
	r.putScratch(sc)
	return n
}

// countOOVInto is countOOV with per-attribute accounting: acc, indexed by
// attribute position, is incremented for each relevant OOV cell. It is not
// part of the annotated hot path — the accounting-enabled batch and
// streaming loops call it, and the extra write happens only for OOV cells.
func (c *compiled) countOOVInto(row []uint32, acc []int64) int {
	n := 0
	for _, a := range c.relevant {
		if row[a] == oov {
			n++
			acc[a]++
		}
	}
	return n
}

// OOVCellsByAttr is OOVCells with per-attribute accounting: acc must have
// one slot per schema attribute and accumulates counts across calls. The
// tuple's total is returned.
func (r *Repairer) OOVCellsByAttr(t schema.Tuple, acc []int64) int {
	sc := r.getScratch()
	r.c.encodeInto(t, sc.row)
	n := r.c.countOOVInto(sc.row, acc)
	r.putScratch(sc)
	return n
}

// oovByAttr folds a per-position accumulator into the attribute-keyed map
// the results expose, skipping attributes with no OOV cells. nil when no
// cell was OOV.
func (r *Repairer) oovByAttr(acc []int64) map[string]int {
	var m map[string]int
	attrs := r.rs.Schema().Attrs()
	for i, n := range acc {
		if n > 0 {
			if m == nil {
				m = make(map[string]int)
			}
			m[attrs[i]] = int(n)
		}
	}
	return m
}
