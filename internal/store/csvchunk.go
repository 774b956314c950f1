// Chunked CSV ingestion: CSVChunkReader parses N rows at a time straight
// into ColChunk columns. Parsing is dictionary-amortised — every column
// keeps a persistent intern table, so a repeated value is hashed once per
// chunk (for the local code) instead of allocated once per cell — and the
// common quote-free line takes a fast path that is two IndexByte sweeps
// and a comma split. Parsing semantics match encoding/csv with the
// default Reader settings (comma separator, no lazy quotes, no trimming);
// csvchunk_test.go cross-checks the two on adversarial inputs.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

const (
	csvReadBufSize = 64 << 10
	// maxCSVLine bounds one physical line; encoding/csv has no such limit,
	// but an unbounded line would defeat the reader's constant-memory
	// guarantee.
	maxCSVLine = maxValueLen
	// maxInternEntries caps each column's persistent intern table. Beyond
	// it (a high-cardinality column, where interning would not pay anyway)
	// new values fall back to per-occurrence allocation.
	maxInternEntries = 1 << 16
)

var errLineTooLong = errors.New("store: csv line exceeds length limit")

// maxChunkEcho bounds the echo buffer so its int32 row offsets cannot
// overflow; rows past the bound simply lose their echo span.
const maxChunkEcho = 1 << 30

// growCap ensures b has capacity for need more bytes, growing geometrically
// (doubling). Go's built-in append switches to ~1.25x growth past a few KB,
// which on the multi-hundred-KB echo and render buffers turns the first
// chunk of every stream into dozens of reallocations; doubling caps the
// total churn at twice the final size.
func growCap(b []byte, need int) []byte {
	if cap(b)-len(b) >= need {
		return b
	}
	nc := 2 * cap(b)
	if nc < len(b)+need {
		nc = len(b) + need
	}
	nb := make([]byte, len(b), nc)
	copy(nb, b)
	return nb
}

// csvPlain reports whether encoding/csv's writer would emit v verbatim,
// without quoting — the exact complement of its fieldNeedsQuotes (with the
// default comma and UseCRLF=false).
func csvPlain(v string) bool {
	if v == "" {
		return true
	}
	if v == `\.` {
		return false // a bare \. terminates a PostgreSQL COPY, so csv quotes it
	}
	if strings.ContainsAny(v, "\",\r\n") {
		return false
	}
	r, _ := utf8.DecodeRuneInString(v)
	return !unicode.IsSpace(r)
}

// csvPlainBytes is csvPlain for a byte-slice field.
func csvPlainBytes(v []byte) bool {
	if len(v) == 0 {
		return true
	}
	if len(v) == 2 && v[0] == '\\' && v[1] == '.' {
		return false // a bare \. terminates a PostgreSQL COPY, so csv quotes it
	}
	if bytes.IndexByte(v, '"') >= 0 || bytes.IndexByte(v, ',') >= 0 ||
		bytes.IndexByte(v, '\r') >= 0 || bytes.IndexByte(v, '\n') >= 0 {
		return false
	}
	r, _ := utf8.DecodeRune(v)
	return !unicode.IsSpace(r)
}

// AppendCSVValue appends v rendered exactly as encoding/csv's writer
// would: verbatim when no quoting is needed, otherwise quoted with every
// interior quote doubled.
//
//fix:hotpath
func AppendCSVValue(dst []byte, v string) []byte {
	if csvPlain(v) {
		return append(dst, v...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(v); i++ {
		if v[i] == '"' {
			dst = append(dst, '"', '"')
		} else {
			dst = append(dst, v[i])
		}
	}
	return append(dst, '"')
}

// AppendCSVValueBytes is AppendCSVValue for a byte-slice field.
//
//fix:hotpath
func AppendCSVValueBytes(dst []byte, v []byte) []byte {
	if csvPlainBytes(v) {
		return append(dst, v...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(v); i++ {
		if v[i] == '"' {
			dst = append(dst, '"', '"')
		} else {
			dst = append(dst, v[i])
		}
	}
	return append(dst, '"')
}

// islot is one open-addressed intern slot; gid is stored +1 so the zero
// value marks an empty slot.
type islot struct {
	key string
	gid int32
}

// internTable is one column's persistent value dictionary: bytes → global
// id, plus per-id bookkeeping reused across chunks. The epoch stamp makes
// the per-chunk local-code dedup O(1) to reset: a stale stamp simply means
// "not yet in this chunk's dictionary".
type internTable struct {
	slots []islot
	mask  uint32
	n     int
	empty int32    // gid+1 of the empty string (0: not interned yet)
	vals  []string // by gid
	plain []bool   // by gid: csvPlain(vals[gid]), computed once
	// loc, by gid, packs the epoch stamp and the chunk-local code the hot
	// loop reads together — one cache line access per cell, not two.
	loc []gidLoc
}

// gidLoc is one gid's chunk-local state: the epoch of the chunk its local
// code was assigned in, and that code.
type gidLoc struct {
	stamp int32
	local int32
}

// find returns the gid of b, or -1.
func (t *internTable) find(b []byte) int32 {
	if len(b) == 0 {
		return t.empty - 1
	}
	if t.slots == nil {
		return -1
	}
	h, _ := SampleHash(b)
	i := h & t.mask
	for {
		sl := &t.slots[i]
		if sl.gid == 0 {
			return -1
		}
		if sl.key == string(b) { // compare only; no allocation
			return sl.gid - 1
		}
		i = (i + 1) & t.mask
	}
}

// intern adds b and returns its new gid, or -1 when the table is full.
func (t *internTable) intern(b []byte) int32 {
	if t.n >= maxInternEntries {
		return -1
	}
	s := string(b)
	gid := int32(len(t.vals))
	t.vals = append(t.vals, s)
	t.plain = append(t.plain, csvPlain(s))
	t.loc = append(t.loc, gidLoc{})
	t.n++
	if len(s) == 0 {
		t.empty = gid + 1
		return gid
	}
	if (t.n+1)*2 > len(t.slots) {
		t.grow()
	}
	h, _ := SampleHash(b)
	i := h & t.mask
	for t.slots[i].gid != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = islot{key: s, gid: gid + 1}
	return gid
}

func (t *internTable) grow() {
	size := uint32(64)
	for int(size) < (t.n+1)*4 {
		size *= 2
	}
	t.slots = make([]islot, size)
	t.mask = size - 1
	for gid, s := range t.vals {
		if len(s) == 0 {
			continue
		}
		h, _ := SampleHash(s)
		i := h & t.mask
		for t.slots[i].gid != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = islot{key: s, gid: int32(gid) + 1}
	}
}

// add assigns b its chunk-local code in col, interning it when possible,
// and reports whether the value renders plainly (echo-safe).
func (t *internTable) add(col *Column, b []byte, epoch int32) bool {
	gid := t.find(b)
	if gid < 0 {
		gid = t.intern(b)
	}
	if gid < 0 { // table full: per-occurrence fallback
		s := string(b)
		col.Codes = append(col.Codes, col.AppendExtraGlobal(s, -1))
		return csvPlain(s)
	}
	loc := &t.loc[gid]
	lc := loc.local
	if loc.stamp != epoch {
		lc = col.AppendExtraGlobal(t.vals[gid], gid)
		loc.stamp = epoch
		loc.local = lc
	}
	col.Codes = append(col.Codes, lc)
	return t.plain[gid]
}

// AppendExtraGlobal adds v to the dictionary with the given global id and
// returns its local code; the code is not appended to Codes.
func (col *Column) AppendExtraGlobal(v string, gid int32) int32 {
	lc := int32(len(col.Dict))
	col.Dict = append(col.Dict, v)
	col.Global = append(col.Global, gid)
	return lc
}

// CSVChunkReader parses a CSV stream into column chunks. It is not safe
// for concurrent use; the chunks it fills are independent of the reader
// once returned (their dictionaries share interned strings, which are
// immutable).
type CSVChunkReader struct {
	src      io.Reader
	arity    int
	buf      []byte
	pos, end int
	eof      bool
	readErr  error
	line     int // physical lines consumed, for error messages
	err      error
	epoch    int32
	cols     []internTable
	// slow-path scratch: decoded field bytes, per-field end offsets, and
	// the field views handed back
	dec    []byte
	ends   []int32
	fields [][]byte
}

// NewCSVChunkReader strips an optional UTF-8 BOM, reads the header record
// and returns it (the caller validates it against its schema). arity is
// the expected field count for every record, header included.
func NewCSVChunkReader(r io.Reader, arity int) (*CSVChunkReader, []string, error) {
	if arity <= 0 {
		return nil, nil, fmt.Errorf("store: csv arity %d", arity)
	}
	cr := &CSVChunkReader{
		src:   r,
		arity: arity,
		buf:   make([]byte, csvReadBufSize),
		cols:  make([]internTable, arity),
	}
	for cr.end < 3 && !cr.eof && cr.readErr == nil {
		cr.fill()
	}
	if bytes.HasPrefix(cr.buf[:cr.end], []byte{0xEF, 0xBB, 0xBF}) {
		cr.pos = 3
	}
	header, err := cr.readHeader()
	if err != nil {
		return nil, nil, err
	}
	return cr, header, nil
}

// fill compacts the buffer and reads more input, growing the buffer when a
// single line overflows it.
func (r *CSVChunkReader) fill() {
	if r.readErr != nil || r.eof {
		return
	}
	if r.pos > 0 {
		copy(r.buf, r.buf[r.pos:r.end])
		r.end -= r.pos
		r.pos = 0
	}
	if r.end == len(r.buf) {
		if len(r.buf) >= maxCSVLine {
			r.readErr = errLineTooLong
			return
		}
		size := len(r.buf) * 2
		if size > maxCSVLine {
			size = maxCSVLine
		}
		nb := make([]byte, size)
		copy(nb, r.buf[:r.end])
		r.buf = nb
	}
	n, err := r.src.Read(r.buf[r.end:])
	r.end += n
	if err == io.EOF {
		r.eof = true
	} else if err != nil {
		r.readErr = err
	}
}

// nextLine returns the next line with the trailing newline — and one
// trailing carriage return, matching encoding/csv's \r\n normalisation and
// its EOF backward-compatibility rule — stripped. The view is valid until
// the next nextLine call.
func (r *CSVChunkReader) nextLine() ([]byte, bool) {
	for {
		if i := bytes.IndexByte(r.buf[r.pos:r.end], '\n'); i >= 0 {
			ln := r.buf[r.pos : r.pos+i]
			r.pos += i + 1
			r.line++
			if n := len(ln); n > 0 && ln[n-1] == '\r' {
				ln = ln[:n-1]
			}
			return ln, true
		}
		if r.readErr != nil {
			return nil, false
		}
		if r.eof {
			if r.pos == r.end {
				return nil, false
			}
			ln := r.buf[r.pos:r.end]
			r.pos = r.end
			r.line++
			if n := len(ln); n > 0 && ln[n-1] == '\r' {
				ln = ln[:n-1]
			}
			return ln, true
		}
		r.fill()
	}
}

func (r *CSVChunkReader) fieldCountErr() error {
	return fmt.Errorf("store: csv line %d: wrong number of fields", r.line)
}

// readHeader parses the first record into fresh strings.
func (r *CSVChunkReader) readHeader() ([]string, error) {
	for {
		ln, ok := r.nextLine()
		if !ok {
			if r.readErr != nil {
				return nil, r.readErr
			}
			return nil, io.EOF
		}
		if len(ln) == 0 {
			continue // blank line, skipped like encoding/csv
		}
		var fields [][]byte
		if bytes.IndexByte(ln, '"') < 0 && bytes.IndexByte(ln, '\r') < 0 {
			rest := ln
			for {
				i := bytes.IndexByte(rest, ',')
				if i < 0 {
					fields = append(fields, rest)
					break
				}
				fields = append(fields, rest[:i])
				rest = rest[i+1:]
			}
		} else {
			var err error
			fields, err = r.readRecordSlow(ln)
			if err != nil {
				return nil, err
			}
		}
		if len(fields) != r.arity {
			return nil, r.fieldCountErr()
		}
		header := make([]string, len(fields))
		for i, f := range fields {
			header[i] = string(f)
		}
		return header, nil
	}
}

// readRecordSlow parses a record whose first line contains a quote or a
// carriage return, following encoding/csv exactly: quoted fields may span
// lines, "" escapes a quote, a bare quote in an unquoted field and a stray
// character after a closing quote are errors. The returned views are valid
// until the next reader call.
func (r *CSVChunkReader) readRecordSlow(ln []byte) ([][]byte, error) {
	dec := r.dec[:0]
	ends := r.ends[:0]
	startLine := r.line
	rest := ln
record:
	for {
		if len(rest) == 0 || rest[0] != '"' {
			// Unquoted field: up to the next comma or end of line.
			f := rest
			i := bytes.IndexByte(rest, ',')
			if i >= 0 {
				f = rest[:i]
			}
			if bytes.IndexByte(f, '"') >= 0 {
				return nil, fmt.Errorf("store: csv line %d: bare %q in non-quoted field", r.line, '"')
			}
			dec = append(dec, f...)
			ends = append(ends, int32(len(dec)))
			if i < 0 {
				break record
			}
			rest = rest[i+1:]
			continue
		}
		// Quoted field.
		rest = rest[1:]
		for {
			i := bytes.IndexByte(rest, '"')
			if i < 0 {
				// The field continues on the next line; the stripped
				// newline belongs to the value.
				dec = append(dec, rest...)
				dec = append(dec, '\n')
				nl, ok := r.nextLine()
				if !ok {
					r.dec, r.ends = dec, ends
					return nil, fmt.Errorf("store: csv line %d: extraneous or missing %q in quoted field", startLine, '"')
				}
				rest = nl
				continue
			}
			dec = append(dec, rest[:i]...)
			rest = rest[i+1:]
			if len(rest) > 0 && rest[0] == '"' {
				dec = append(dec, '"')
				rest = rest[1:]
				continue
			}
			break
		}
		ends = append(ends, int32(len(dec)))
		if len(rest) == 0 {
			break record
		}
		if rest[0] != ',' {
			r.dec, r.ends = dec, ends
			return nil, fmt.Errorf("store: csv line %d: extraneous or missing %q in quoted field", r.line, '"')
		}
		rest = rest[1:]
	}
	fields := r.fields[:0]
	prev := int32(0)
	for _, e := range ends {
		fields = append(fields, dec[prev:e])
		prev = e
	}
	r.dec, r.ends, r.fields = dec, ends, fields
	return fields, nil
}

// ReadChunk parses up to maxRows records into c, returning the number of
// rows read. At end of input it returns 0, io.EOF. On a malformed record
// the rows parsed before it are returned as a (short) chunk — exactly the
// rows a record-at-a-time stream would have emitted — and the sticky
// error surfaces on the next call.
func (r *CSVChunkReader) ReadChunk(c *ColChunk, maxRows int) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	c.Reset(r.arity)
	// Reserve the code vectors once: growing 4-byte appends through the
	// runtime's shallow large-slice growth curve costs more than the final
	// backing, and the capacity is known exactly.
	if res := maxRows; res <= maxInternEntries {
		for a := range c.Cols {
			col := &c.Cols[a]
			if cap(col.Codes) < res {
				col.Codes = make([]int32, 0, res)
			}
		}
	}
	r.epoch++
	echoOK := true
	echo := c.Echo[:0]
	ends := c.EchoEnd[:0]
	rows := 0
	// finish seals the chunk at the current row count, trimming codes a
	// partially-parsed bad record appended.
	finish := func() {
		for a := range c.Cols {
			col := &c.Cols[a]
			if len(col.Codes) > rows {
				col.Codes = col.Codes[:rows]
			}
		}
		c.Rows = rows
		c.Echo = echo
		c.EchoEnd = ends
		c.EchoOK = echoOK && rows > 0
	}
	for rows < maxRows {
		ln, ok := r.nextLine()
		if !ok {
			break
		}
		if len(ln) == 0 {
			continue // blank line, skipped like encoding/csv
		}
		if bytes.IndexByte(ln, '"') < 0 && bytes.IndexByte(ln, '\r') < 0 {
			// Fast path: quote-free line, fields are the comma splits.
			plain, err := r.addFastRow(c, ln)
			if err != nil {
				r.err = err
				break
			}
			// Echo spans are recorded per row (even after a non-echoable
			// row) so the renderer can still copy the clean rows of a chunk
			// whose chunk-level echo died.
			if plain && len(echo)+len(ln)+1 <= maxChunkEcho {
				echo = growCap(echo, len(ln)+1)
				echo = append(echo, ln...)
				echo = append(echo, '\n')
				ends = append(ends, int32(len(echo)))
			} else {
				echoOK = false
				ends = append(ends, -1)
			}
			rows++
			continue
		}
		echoOK = false
		fields, err := r.readRecordSlow(ln)
		if err == nil && len(fields) != r.arity {
			err = r.fieldCountErr()
		}
		if err != nil {
			r.err = err
			break
		}
		for a, f := range fields {
			r.cols[a].add(&c.Cols[a], f, r.epoch)
		}
		ends = append(ends, -1)
		rows++
	}
	finish()
	if rows == 0 {
		if r.err != nil {
			return 0, r.err
		}
		if r.readErr != nil {
			r.err = r.readErr
			return 0, r.err
		}
		r.err = io.EOF
		return 0, io.EOF
	}
	return rows, nil
}

// addFastRow splits a quote-free line on commas and interns each field,
// reporting whether every value is echo-safe.
func (r *CSVChunkReader) addFastRow(c *ColChunk, ln []byte) (bool, error) {
	plain := true
	a := 0
	rest := ln
	for {
		i := bytes.IndexByte(rest, ',')
		var f []byte
		if i < 0 {
			f = rest
		} else {
			f = rest[:i]
		}
		if a >= r.arity {
			return false, r.fieldCountErr()
		}
		if !r.cols[a].add(&c.Cols[a], f, r.epoch) {
			plain = false
		}
		a++
		if i < 0 {
			break
		}
		rest = rest[i+1:]
	}
	if a != r.arity {
		return false, r.fieldCountErr()
	}
	return plain, nil
}

// CSVChunkRenderer renders chunks back to CSV bytes, byte-identical to
// encoding/csv's writer. The per-dictionary-entry quoting decision is
// cached, so a value repeated down a column is scanned once per chunk.
type CSVChunkRenderer struct {
	plain [][]bool
}

// AppendChunkCSV appends the rendering of c to dst. Chunks whose echo
// survived (fast-path parse, no repairs) are copied verbatim; chunks with
// per-row echo spans copy their clean rows and re-render only the repaired
// or non-plain ones.
//
//fix:hotpath
func (r *CSVChunkRenderer) AppendChunkCSV(dst []byte, c *ColChunk) []byte {
	if c.EchoOK {
		return append(dst, c.Echo...)
	}
	if len(c.EchoEnd) == c.Rows && c.Rows > 0 {
		return appendRowsCSV(dst, c)
	}
	for len(r.plain) < len(c.Cols) {
		r.plain = append(r.plain, nil)
	}
	for a := range c.Cols {
		pl := r.plain[a][:0]
		for _, v := range c.Cols[a].Dict {
			pl = append(pl, csvPlain(v))
		}
		r.plain[a] = pl
	}
	for i := 0; i < c.Rows; i++ {
		for a := range c.Cols {
			if a > 0 {
				dst = append(dst, ',')
			}
			col := &c.Cols[a]
			e := col.Codes[i]
			if r.plain[a][e] {
				dst = append(dst, col.Dict[e]...)
			} else {
				dst = AppendCSVValue(dst, col.Dict[e])
			}
		}
		dst = append(dst, '\n')
	}
	return dst
}

// appendRowsCSV renders a chunk carrying per-row echo spans: each clean
// echoable row is one copy of its input bytes; only rows a repair dirtied
// (or whose parse was not echo-safe) go through the value renderer. The
// dictionary-level plain cache does not pay for itself here — typically a
// few percent of rows re-render — so quoting is decided per emitted cell.
//
//fix:hotpath
func appendRowsCSV(dst []byte, c *ColChunk) []byte {
	start := int32(0)
	dirty := c.Dirty
	for i := 0; i < c.Rows; i++ {
		end := c.EchoEnd[i]
		if end >= 0 {
			if len(dirty) == 0 || dirty[i] == 0 {
				dst = append(dst, c.Echo[start:end]...)
				start = end
				continue
			}
			start = end
		}
		for a := range c.Cols {
			if a > 0 {
				dst = append(dst, ',')
			}
			col := &c.Cols[a]
			dst = AppendCSVValue(dst, col.Dict[col.Codes[i]])
		}
		dst = append(dst, '\n')
	}
	return dst
}
