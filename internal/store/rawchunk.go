// Raw CSV chunks: the zero-interning counterpart of ReadChunk. A RawChunk
// keeps each batch of rows as one flat byte buffer — every row's decoded
// cells joined by commas and terminated by a newline, which for a
// fast-path row is the input line verbatim — plus one end offset per cell.
// No dictionaries, no value interning: a consumer that can act on cell
// bytes directly (the repair engine codes them straight into its ruleset
// vocabulary, whose tables are small and cache-resident) skips the
// per-distinct-value bookkeeping entirely, and rows whose buffer bytes are
// already their canonical CSV rendering re-emit as zero-copy spans.
package store

import (
	"io"
	"math/bits"
	"unicode"
	"unicode/utf8"
)

// rawChunkBudget bounds one RawChunk's buffer: a chunk ends early rather
// than letting pathological row lengths grow it without bound (and keeps
// the int32 offsets safe by a wide margin).
const rawChunkBudget = 1 << 24

// RawChunk is a batch of parsed CSV rows as raw bytes.
type RawChunk struct {
	// Arity is the field count of every row, set by the reader.
	Arity int
	Rows  int
	// Buf holds, for each row in order, its decoded cell bytes joined by
	// single commas and terminated by '\n'. Ends holds one end offset per
	// cell: cell (i, a) ends at Ends[i*Arity+a] and starts one byte past
	// the previous cell's end (skipping the comma or newline), at 0 for
	// the very first cell. The byte at a row's last cell end is its '\n'.
	Buf  []byte
	Ends []int32
	// Plain[i] is 1 when row i's bytes in Buf are exactly its canonical
	// CSV rendering — a fast-path parse whose every field the CSV writer
	// would emit verbatim — so the row can be re-emitted as a span copy.
	Plain []uint8
	// AllPlain marks every row plain: the whole chunk is one clean span.
	AllPlain bool
}

// Reset clears the chunk for reuse, keeping capacity.
func (c *RawChunk) Reset(arity int) {
	c.Arity = arity
	c.Rows = 0
	c.Buf = c.Buf[:0]
	c.Ends = c.Ends[:0]
	c.Plain = c.Plain[:0]
	c.AllPlain = false
}

// RowSpan returns row i's byte range in Buf, newline included.
func (c *RawChunk) RowSpan(i int) (int32, int32) {
	start := int32(0)
	if i > 0 {
		start = c.Ends[i*c.Arity-1] + 1
	}
	return start, c.Ends[(i+1)*c.Arity-1] + 1
}

// Cell returns the decoded bytes of cell (i, a); the view is valid until
// the chunk is reset.
func (c *RawChunk) Cell(i, a int) []byte {
	idx := i*c.Arity + a
	start := int32(0)
	if idx > 0 {
		start = c.Ends[idx-1] + 1
	}
	return c.Buf[start:c.Ends[idx]]
}

// ReadRawChunk parses up to maxRows records into c. Acceptance, rejection,
// partial-chunk-before-error behaviour and row accounting are identical to
// ReadChunk — the two readers share the line scanner and the slow-path
// record parser — only the chunk representation differs.
func (r *CSVChunkReader) ReadRawChunk(c *RawChunk, maxRows int) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	c.Reset(r.arity)
	if res := maxRows * r.arity; res <= maxChunkCells && cap(c.Ends) < res {
		c.Ends = make([]int32, 0, res)
	}
	if cap(c.Plain) < maxRows {
		c.Plain = make([]uint8, 0, maxRows)
	}
	allPlain := true
	rows := 0
	for rows < maxRows {
		ln, ok := r.nextLine()
		if !ok {
			break
		}
		if len(ln) == 0 {
			continue // blank line, skipped like encoding/csv
		}
		if fast, plain, err := r.addRawFastRow(c, ln); err != nil {
			r.err = err
			break
		} else if fast {
			// Fast path: quote-free line, fields are the comma splits and
			// the row's buffer bytes are the line itself.
			if plain {
				c.Plain = append(c.Plain, 1)
			} else {
				c.Plain = append(c.Plain, 0)
				allPlain = false
			}
			rows++
			if len(c.Buf) > rawChunkBudget {
				break
			}
			continue
		}
		fields, err := r.readRecordSlow(ln)
		if err == nil && len(fields) != r.arity {
			err = r.fieldCountErr()
		}
		if err != nil {
			r.err = err
			break
		}
		for a, f := range fields {
			if a > 0 {
				c.Buf = append(c.Buf, ',')
			}
			c.Buf = append(c.Buf, f...)
			c.Ends = append(c.Ends, int32(len(c.Buf)))
		}
		c.Buf = append(c.Buf, '\n')
		c.Plain = append(c.Plain, 0)
		allPlain = false
		rows++
		if len(c.Buf) > rawChunkBudget {
			break
		}
	}
	c.Rows = rows
	c.AllPlain = allPlain && rows > 0
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

// swarOnes spreads a byte across a 64-bit word; swarLow masks each lane's
// low seven bits.
const (
	swarOnes = 0x0101010101010101
	swarLow  = 0x7F7F7F7F7F7F7F7F
)

// swarMatch returns a word with the high bit set in exactly the bytes of
// w equal to b. After the XOR a matching lane is zero; adding 0x7F to a
// lane's low seven bits sets its high bit unless all seven are zero, and
// never carries into the next lane. (The shorter (x-0x01…)&^x&0x80… test
// is not exact per lane: its borrow also marks a 0x01 lane above a zero
// one, such as a "-" right after a ",".)
func swarMatch(w uint64, b byte) uint64 {
	x := w ^ (swarOnes * uint64(b))
	return ^((x&swarLow + swarLow) | x | swarLow)
}

// tzBytes converts a swarMatch mask to the byte index of its lowest hit.
func tzBytes(m uint64) int {
	return bits.TrailingZeros64(m) >> 3
}

// addRawFastRow tries the fast path on a line: one word-at-a-time sweep
// finds every comma and simultaneously screens for quotes and carriage
// returns, so the common line is structured in a single pass with no
// per-field scans. Returns fast=false (with the chunk untouched) when the
// line contains a quote or CR and must take the slow record parser.
// fast=true means the line (plus newline) was appended to the buffer with
// its comma splits recorded as cell ends; plain reports whether every
// field renders verbatim. On a field-count error the row is rolled back.
func (r *CSVChunkReader) addRawFastRow(c *RawChunk, ln []byte) (fast, plain bool, err error) {
	buf0, ends0 := len(c.Buf), len(c.Ends)
	c.Buf = growCap(c.Buf, len(ln)+1)
	c.Buf = append(c.Buf, ln...)
	c.Buf = append(c.Buf, '\n')
	ends := c.Ends
	arity := r.arity
	plain = true
	a := 0
	prev := 0
	n := len(ln)
	emit := func(end int) bool {
		if a >= arity {
			return false
		}
		if plain && !fastFieldPlain(ln[prev:end]) {
			plain = false
		}
		ends = append(ends, int32(buf0+end))
		a++
		prev = end + 1
		return true
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		w := Load64(ln, i)
		if swarMatch(w, '"')|swarMatch(w, '\r') != 0 {
			c.Buf = c.Buf[:buf0]
			return false, false, nil
		}
		for m := swarMatch(w, ','); m != 0; m &= m - 1 {
			if !emit(i + tzBytes(m)) {
				c.Buf, c.Ends = c.Buf[:buf0], c.Ends[:ends0]
				return true, false, r.fieldCountErr()
			}
		}
	}
	for ; i < n; i++ {
		switch ln[i] {
		case '"', '\r':
			c.Buf = c.Buf[:buf0]
			return false, false, nil
		case ',':
			if !emit(i) {
				c.Buf, c.Ends = c.Buf[:buf0], c.Ends[:ends0]
				return true, false, r.fieldCountErr()
			}
		}
	}
	if !emit(n) || a != arity {
		c.Buf, c.Ends = c.Buf[:buf0], c.Ends[:ends0]
		return true, false, r.fieldCountErr()
	}
	c.Ends = ends
	return true, plain, nil
}

// fastFieldPlain is csvPlain restricted to fields from the quote-free fast
// path: such a field cannot contain a quote, comma, CR or NL (the line had
// none and commas delimit), so only the empty, bare-\. and leading-space
// cases remain. The common ASCII first byte decides with one compare.
func fastFieldPlain(v []byte) bool {
	if len(v) == 0 {
		return true
	}
	c0 := v[0]
	if c0 > ' ' && c0 < utf8.RuneSelf {
		return !(c0 == '\\' && len(v) == 2 && v[1] == '.')
	}
	if c0 < utf8.RuneSelf {
		switch c0 {
		case ' ', '\t', '\v', '\f': // \r and \n cannot appear here
			return false
		}
		return true
	}
	r, _ := utf8.DecodeRune(v)
	return !unicode.IsSpace(r)
}
