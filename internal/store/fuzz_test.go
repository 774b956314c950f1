package store

import (
	"bytes"
	"encoding/csv"
	"io"
	"strings"
	"testing"

	"fixrule/internal/schema"
)

// FuzzRead hardens the binary reader: arbitrary bytes must either decode
// into a relation that re-encodes losslessly, or fail with an error —
// never panic, never hang, never allocate unbounded memory.
func FuzzRead(f *testing.F) {
	var good bytes.Buffer
	if err := Write(&good, sampleRelation()); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte(magic))
	f.Add([]byte("FRELv1\n\x02R\x01a\x01"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, rel); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		rel2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if rel2.Len() != rel.Len() || len(schema.Diff(rel, rel2)) != 0 {
			t.Fatal("binary round trip changed data")
		}
	})
}

// FuzzReadColumnar hardens the fcol chunk decoder the same way FuzzRead
// hardens the frel row decoder: arbitrary bytes must either decode into a
// relation that re-encodes losslessly, or fail — never panic, never hang,
// never allocate unbounded memory.
func FuzzReadColumnar(f *testing.F) {
	var good bytes.Buffer
	if err := WriteColumnar(&good, sampleRelation(), 2); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte(colMagic))
	f.Add([]byte("FCOLv1\n\x01R\x01a\x02\x02\x01\x01x\x00\x00"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := ReadColumnar(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteColumnar(&out, rel, 3); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		rel2, err := ReadColumnar(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if rel2.Len() != rel.Len() || len(schema.Diff(rel, rel2)) != 0 {
			t.Fatal("columnar round trip changed data")
		}
	})
}

// FuzzCSVChunk cross-checks the chunked CSV parser against encoding/csv
// on arbitrary input: both must accept the same prefixes with the same
// records, or both must fail.
func FuzzCSVChunk(f *testing.F) {
	f.Add("a,b\n1,2\n3,4\n")
	f.Add("a,b\r\n\"x\n y\",\"q\"\"q\"\n,\n")
	f.Add("a,b\n\nx,\"\n\r\n\",oops")
	f.Add("\xEF\xBB\xBFa,b\n1,2\r")
	f.Add("a,b\nbare\"quote,2\n")
	f.Add("a,b\n000000,-0\n") // a "-" after "," once split as a separator
	f.Add("\ufeff\n,")        // BOM, then a blank line before the header
	f.Fuzz(func(t *testing.T, in string) {
		const arity = 2
		// The chunk reader strips an optional UTF-8 BOM (documented on
		// NewCSVChunkReader); encoding/csv does not, so the reference
		// reads the stripped input.
		ref := csv.NewReader(strings.NewReader(strings.TrimPrefix(in, "\ufeff")))
		ref.FieldsPerRecord = arity
		var refRecs [][]string
		_, refErr := ref.Read() // header
		if refErr == nil {
			for {
				rec, err := ref.Read()
				if err == io.EOF {
					break
				}
				if err != nil {
					refErr = err
					break
				}
				refRecs = append(refRecs, rec)
			}
		}

		var gotRecs [][]string
		cr, _, gotErr := NewCSVChunkReader(strings.NewReader(in), arity)
		if gotErr == nil {
			var c ColChunk
			for {
				n, err := cr.ReadChunk(&c, 3)
				if err == io.EOF {
					break
				}
				if err != nil {
					gotErr = err
					break
				}
				for i := 0; i < n; i++ {
					gotRecs = append(gotRecs, []string{c.Value(i, 0), c.Value(i, 1)})
				}
			}
		}

		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("acceptance differs: ref %v, chunk %v", refErr, gotErr)
		}
		if len(refRecs) != len(gotRecs) {
			t.Fatalf("ref %d records, chunk %d (ref err %v)", len(refRecs), len(gotRecs), refErr)
		}
		for i := range refRecs {
			if refRecs[i][0] != gotRecs[i][0] || refRecs[i][1] != gotRecs[i][1] {
				t.Fatalf("record %d: ref %q, chunk %q", i, refRecs[i], gotRecs[i])
			}
		}

		// The raw chunk reader must agree cell for cell, and every row it
		// marks plain must hold exactly the row's canonical CSV rendering.
		var rawRecs [][]string
		rr, _, rawErr := NewCSVChunkReader(strings.NewReader(in), arity)
		if rawErr == nil {
			var rc RawChunk
			for {
				n, err := rr.ReadRawChunk(&rc, 3)
				if err == io.EOF {
					break
				}
				if err != nil {
					rawErr = err
					break
				}
				for i := 0; i < n; i++ {
					rawRecs = append(rawRecs, []string{string(rc.Cell(i, 0)), string(rc.Cell(i, 1))})
					var want []byte
					want = AppendCSVValueBytes(want, rc.Cell(i, 0))
					want = append(want, ',')
					want = AppendCSVValueBytes(want, rc.Cell(i, 1))
					want = append(want, '\n')
					s, e := rc.RowSpan(i)
					if rc.Plain[i] == 1 && !bytes.Equal(rc.Buf[s:e], want) {
						t.Fatalf("row %d marked plain but span %q != canonical %q", i, rc.Buf[s:e], want)
					}
					if rc.AllPlain && rc.Plain[i] != 1 {
						t.Fatalf("AllPlain chunk holds non-plain row %d", i)
					}
				}
			}
		}
		if (gotErr == nil) != (rawErr == nil) {
			t.Fatalf("raw acceptance differs: chunk %v, raw %v", gotErr, rawErr)
		}
		if len(gotRecs) != len(rawRecs) {
			t.Fatalf("chunk %d records, raw %d", len(gotRecs), len(rawRecs))
		}
		for i := range gotRecs {
			if gotRecs[i][0] != rawRecs[i][0] || gotRecs[i][1] != rawRecs[i][1] {
				t.Fatalf("record %d: chunk %q, raw %q", i, gotRecs[i], rawRecs[i])
			}
		}
	})
}
