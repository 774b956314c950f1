package store

import (
	"bytes"
	"encoding/csv"
	"io"
	"math/rand"
	"strings"
	"testing"

	"fixrule/internal/schema"
)

func TestColumnarRoundTrip(t *testing.T) {
	rel := sampleRelation()
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, rel, 2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadColumnar(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema().Equal(rel.Schema()) {
		t.Errorf("schema = %s", got.Schema())
	}
	if got.Len() != rel.Len() || len(schema.Diff(rel, got)) != 0 {
		t.Fatal("columnar round trip changed data")
	}
}

// TestColumnarRewriteByteIdentical: scanning a stream chunk by chunk and
// re-writing each chunk reproduces the original bytes exactly — the
// decoder preserves dictionaries and codes, and the encoder is
// deterministic.
func TestColumnarRewriteByteIdentical(t *testing.T) {
	rel := randomRelation(t, 500)
	var orig bytes.Buffer
	if err := WriteColumnar(&orig, rel, 64); err != nil {
		t.Fatal(err)
	}
	sc, err := NewChunkScanner(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cw, err := NewChunkWriter(&out, sc.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var c ColChunk
	for {
		_, err := sc.ReadChunk(&c)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.WriteChunk(&c); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), out.Bytes()) {
		t.Fatalf("rewrite differs: %d vs %d bytes", orig.Len(), out.Len())
	}
}

func TestColumnarDetectsCorruption(t *testing.T) {
	rel := sampleRelation()
	var buf bytes.Buffer
	if err := WriteColumnar(&buf, rel, 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-6] ^= 0x40 // flip a bit before the checksum
	if _, err := ReadColumnar(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupted stream read without error")
	}
	truncated := data[:len(data)-3]
	if _, err := ReadColumnar(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated stream read without error")
	}
}

// nastyValues exercises every CSV quoting rule: quotes, commas, newlines,
// carriage returns, leading spaces, the \. escape, and plain values.
var nastyValues = []string{
	"plain", "", `has"quote`, "comma,inside", "line\nbreak", "cr\rhere",
	" leadspace", "\ttab", `\.`, "ünïcode", "trail ", `""`, "a\r\nb",
	" nbsp", "ok2",
}

func randomRelation(t *testing.T, rows int) *schema.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	sch := schema.New("R", "a", "b", "c")
	rel := schema.NewRelation(sch)
	for i := 0; i < rows; i++ {
		tup := make(schema.Tuple, 3)
		for j := range tup {
			tup[j] = nastyValues[rng.Intn(len(nastyValues))]
		}
		rel.Append(tup)
	}
	return rel
}

// writeCSV renders rel with encoding/csv — the reference the chunk reader
// and renderer must match byte for byte.
func writeCSV(t *testing.T, rel *schema.Relation) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(rel.Schema().Attrs()); err != nil {
		t.Fatal(err)
	}
	for _, row := range rel.Rows() {
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCSVChunkReaderMatchesEncodingCSV parses adversarial CSV with both
// readers and requires identical records. The reference is encoding/csv's
// own reading of the bytes (which, e.g., normalises \r\n to \n inside
// quoted fields), not the relation the bytes were rendered from.
func TestCSVChunkReaderMatchesEncodingCSV(t *testing.T) {
	rel := randomRelation(t, 400)
	data := writeCSV(t, rel)
	want, err := refParse(string(data), 3)
	if err != nil {
		t.Fatal(err)
	}

	cr, header, err := NewCSVChunkReader(bytes.NewReader(data), 3)
	if err != nil {
		t.Fatal(err)
	}
	if wantH := rel.Schema().Attrs(); !equalStrings(header, wantH) {
		t.Fatalf("header = %q, want %q", header, wantH)
	}
	var c ColChunk
	row := 0
	for {
		n, err := cr.ReadChunk(&c, 64)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for a := 0; a < 3; a++ {
				if got := c.Value(i, a); got != want[row][a] {
					t.Fatalf("row %d col %d = %q, want %q", row, a, got, want[row][a])
				}
			}
			row++
		}
	}
	if row != len(want) {
		t.Fatalf("read %d rows, want %d", row, len(want))
	}
}

// TestCSVChunkRendererByteIdentical: chunk-parse then chunk-render must
// reproduce encoding/csv's output exactly, echo or not.
func TestCSVChunkRendererByteIdentical(t *testing.T) {
	for name, rel := range map[string]*schema.Relation{
		"nasty": randomRelation(t, 300),
		"plain": plainRelation(300),
	} {
		data := writeCSV(t, rel)
		// The reference is what a csv.Reader → csv.Writer pass over the
		// bytes produces (the in-memory repair path's codecs).
		want := roundTripCSV(t, data, rel.Schema().Arity())
		cr, header, err := NewCSVChunkReader(bytes.NewReader(data), rel.Schema().Arity())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out []byte
		for i, h := range header {
			if i > 0 {
				out = append(out, ',')
			}
			out = AppendCSVValue(out, h)
		}
		out = append(out, '\n')
		var c ColChunk
		var rend CSVChunkRenderer
		sawEcho := false
		for {
			_, err := cr.ReadChunk(&c, 64)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sawEcho = sawEcho || c.EchoOK
			out = rend.AppendChunkCSV(out, &c)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("%s: render differs from encoding/csv", name)
		}
		if name == "plain" && !sawEcho {
			t.Error("plain relation never took the echo fast path")
		}
		if name == "nasty" && sawEcho {
			t.Error("nasty relation echoed a chunk that needs quoting")
		}
	}
}

// roundTripCSV passes data through csv.Reader → csv.Writer, the reference
// transformation the chunk pipeline must reproduce byte for byte.
func roundTripCSV(t *testing.T, data []byte, arity int) []byte {
	t.Helper()
	r := csv.NewReader(bytes.NewReader(data))
	r.FieldsPerRecord = arity
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	return buf.Bytes()
}

func plainRelation(rows int) *schema.Relation {
	sch := schema.New("R", "a", "b", "c")
	rel := schema.NewRelation(sch)
	vals := []string{"alpha", "beta", "gamma", "delta", ""}
	for i := 0; i < rows; i++ {
		rel.Append(schema.Tuple{vals[i%5], vals[(i+1)%5], vals[(i+2)%5]})
	}
	return rel
}

// TestCSVChunkReaderTrickyInputs feeds raw CSV fragments to both parsers
// and requires agreement on acceptance and on the parsed records.
func TestCSVChunkReaderTrickyInputs(t *testing.T) {
	inputs := []string{
		"a,b\n1,2\n3,4\n",
		"a,b\r\n1,2\r\n",
		"a,b\n\n\n1,2\n",                   // blank lines skipped
		"a,b\n1,2",                         // no trailing newline
		"a,b\n1,2\r",                       // trailing \r at EOF
		"a,b\n\"x\",y\n",                   // quoted field
		"a,b\n\"x\"\"y\",z\n",              // escaped quote
		"a,b\n\"multi\nline\",z\n",         // newline in quoted field
		"a,b\n\"multi\r\nline\",z\n",       // \r\n in quoted field
		"a,b\n,\n",                         // empty fields
		"a,b\nx,\"\"\n",                    // empty quoted field
		"\xEF\xBB\xBFa,b\n1,2\n",           // BOM
		"a,b\n\" lead\",z\n",               // leading space, quoted
		"a,b\nx\"y,z\n",                    // bare quote: error
		"a,b\n\"x\"y,z\n",                  // stray char after quote: error
		"a,b\n\"unterminated,z\n",          // unterminated quote: error
		"a,b\n1,2,3\n",                     // too many fields: error
		"a,b\n1\n",                         // too few fields: error
		"a,b\nx,y\ntoo,many,fields\nz,w\n", // error mid-stream
		"a,b\n\"x\ny\"\"z\",\"q\"\n plain,q\n",
		"",    // empty input: header EOF
		"a,b", // header only, no newline
	}
	for _, in := range inputs {
		refRecs, refErr := refParse(in, 2)
		gotRecs, gotErr := chunkParse(in, 2)
		if (refErr == nil) != (gotErr == nil) {
			t.Errorf("%q: ref err %v, chunk err %v", in, refErr, gotErr)
			continue
		}
		if refErr != nil {
			// Both fail; rows accepted before the error must agree too.
			if len(refRecs) != len(gotRecs) {
				t.Errorf("%q: ref accepted %d rows before error, chunk %d", in, len(refRecs), len(gotRecs))
			}
			continue
		}
		if len(refRecs) != len(gotRecs) {
			t.Errorf("%q: ref %d rows, chunk %d", in, len(refRecs), len(gotRecs))
			continue
		}
		for i := range refRecs {
			if !equalStrings(refRecs[i], gotRecs[i]) {
				t.Errorf("%q row %d: ref %q, chunk %q", in, i, refRecs[i], gotRecs[i])
			}
		}
	}
}

// refParse runs encoding/csv over in (header + records, arity fields).
func refParse(in string, arity int) ([][]string, error) {
	r := csv.NewReader(strings.NewReader(in))
	r.FieldsPerRecord = arity
	if _, err := r.Read(); err != nil {
		return nil, err
	}
	var recs [][]string
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// chunkParse runs CSVChunkReader over in with a small chunk size.
func chunkParse(in string, arity int) ([][]string, error) {
	cr, _, err := NewCSVChunkReader(strings.NewReader(in), arity)
	if err != nil {
		return nil, err
	}
	var recs [][]string
	var c ColChunk
	for {
		n, err := cr.ReadChunk(&c, 3)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		for i := 0; i < n; i++ {
			rec := make([]string, arity)
			for a := 0; a < arity; a++ {
				rec[a] = c.Value(i, a)
			}
			recs = append(recs, rec)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestInternTableOverflow drives a column past maxInternEntries and checks
// values still parse correctly through the fallback path.
func TestInternTableOverflow(t *testing.T) {
	var tbl internTable
	var col Column
	for i := 0; i < maxInternEntries+100; i++ {
		b := []byte{byte(i), byte(i >> 8), byte(i >> 16), 'x'}
		tbl.add(&col, b, 1)
	}
	if len(col.Codes) != maxInternEntries+100 {
		t.Fatalf("codes = %d", len(col.Codes))
	}
	for i, code := range col.Codes {
		want := string([]byte{byte(i), byte(i >> 8), byte(i >> 16), 'x'})
		if col.Dict[code] != want {
			t.Fatalf("entry %d = %q, want %q", i, col.Dict[code], want)
		}
	}
	// Re-adding an interned value in a later epoch dedups within the chunk.
	var col2 Column
	tbl.add(&col2, []byte{0, 0, 0, 'x'}, 2)
	tbl.add(&col2, []byte{0, 0, 0, 'x'}, 2)
	if len(col2.Dict) != 1 || len(col2.Codes) != 2 {
		t.Fatalf("dedup failed: dict %d codes %d", len(col2.Dict), len(col2.Codes))
	}
}

// TestSWARMatchExact checks the word-at-a-time byte matcher against a
// byte loop, on random words and on runs of b, b+1 and b-1, whose borrows
// and carries fooled the shorter zero-lane test.
func TestSWARMatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, b := range []byte{',', '"', '\r', 0x00, 0x7F, 0x80, 0xFF} {
		near := []byte{b, b + 1, b - 1, 0x00, 0x80}
		for i := 0; i < 20000; i++ {
			var w uint64
			for lane := 0; lane < 8; lane++ {
				v := byte(rng.Intn(256))
				if i%2 == 0 {
					v = near[rng.Intn(len(near))]
				}
				w |= uint64(v) << (8 * lane)
			}
			var want uint64
			for lane := 0; lane < 8; lane++ {
				if byte(w>>(8*lane)) == b {
					want |= 0x80 << (8 * lane)
				}
			}
			if got := swarMatch(w, b); got != want {
				t.Fatalf("swarMatch(%#016x, %#02x) = %#016x, want %#016x", w, b, got, want)
			}
		}
	}
}
