package repair

import (
	"fmt"
	"sort"
	"testing"

	"fixrule/internal/dataset"
	"fixrule/internal/noise"
	"fixrule/internal/rulegen"
)

// vocabTable freezes keys, coded 1..n in order, into a valueTable.
func vocabTable(keys []string) *valueTable {
	m := make(map[string]uint32, len(keys))
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			m[k] = uint32(len(m) + 1)
		}
	}
	return newValueTable(m)
}

// tableVocab recovers the interning map a table was frozen from.
func tableVocab(t *valueTable) map[string]uint32 {
	m := make(map[string]uint32)
	if t.emptyCode != 0 {
		m[""] = t.emptyCode
	}
	for _, sl := range t.slots {
		if sl.code != 0 {
			m[sl.key] = sl.code
		}
	}
	return m
}

// hitProbes returns how many slots code(k) visits to find k, which must be
// in t. It is measured through the table itself rather than by
// recomputing the hash: emptying a slot j between k's home slot and the
// slot k sits in makes the lookup stop at j and miss, while emptying a
// slot before the home slot leaves it unaffected, so the home slot is
// found by a binary search over how far back the emptied slot lies.
func hitProbes(t *valueTable, k string) int {
	p := -1
	for i := range t.slots {
		if t.slots[i].code != 0 && t.slots[i].key == k {
			p = i
			break
		}
	}
	if p < 0 {
		panic("hitProbes: key not in table: " + k)
	}
	back := 1 // distance to the empty slot that starts p's cluster
	for t.slots[(uint32(p)-uint32(back))&t.mask].code != 0 {
		back++
	}
	unaffected := func(d int) bool {
		j := (uint32(p) - uint32(d)) & t.mask
		saved := t.slots[j]
		t.slots[j] = slot{}
		found := t.code(k) != oov
		t.slots[j] = saved
		return found
	}
	// The smallest d whose emptied slot lies before the home slot is the
	// home slot's distance back plus one, which is the probe count.
	return sort.Search(back, func(i int) bool { return unaffected(i + 1) }) + 1
}

// missProbes returns how many slots code(k) visits before reporting k out
// of vocabulary, counting the empty slot that ends the walk; k must not be
// in t. k's home slot is read off a table frozen from the vocabulary plus
// k; ok is false when that table has a different size, so no home carries
// over.
func missProbes(t *valueTable, vocab map[string]uint32, k string) (n int, ok bool) {
	vocab[k] = uint32(len(vocab) + 1)
	t2 := newValueTable(vocab)
	delete(vocab, k)
	if t2.mask != t.mask {
		return 0, false
	}
	var p uint32
	for i := range t2.slots {
		if t2.slots[i].code != 0 && t2.slots[i].key == k {
			p = uint32(i)
		}
	}
	home := (p - uint32(hitProbes(t2, k)) + 1) & t.mask
	n = 1
	for i := home; t.slots[i].code != 0; i = (i + 1) & t.mask {
		n++
	}
	return n, true
}

// probeMeans is the mean probe count per hit over every key of the tables
// and per miss over the given out-of-vocabulary probes.
type probeMeans struct {
	hits, misses      int
	hitMean, missMean float64
}

func measureProbes(tables []*valueTable, misses [][]string) probeMeans {
	var pm probeMeans
	hitSum, missSum := 0, 0
	for i, t := range tables {
		vocab := tableVocab(t)
		for k := range vocab {
			if k != "" {
				hitSum += hitProbes(t, k)
				pm.hits++
			}
		}
		for _, k := range misses[i] {
			if _, in := vocab[k]; in || k == "" {
				continue
			}
			if n, ok := missProbes(t, vocab, k); ok {
				missSum += n
				pm.misses++
			}
		}
	}
	if pm.hits > 0 {
		pm.hitMean = float64(hitSum) / float64(pm.hits)
	}
	if pm.misses > 0 {
		pm.missMean = float64(missSum) / float64(pm.misses)
	}
	return pm
}

// fixedVocab formats ids through format: the first n of them form the
// vocabulary and the next m are same-length misses.
func fixedVocab(format string, n, m int, id func(i int) int) (vocab, misses []string) {
	for i := 0; i < n+m; i++ {
		s := fmt.Sprintf(format, id(i))
		if i < n {
			vocab = append(vocab, s)
		} else {
			misses = append(misses, s)
		}
	}
	return vocab, misses
}

// minedTables compiles a Σ mined the way the root package's benchmarks
// mine theirs, and returns its per-attribute tables together with each
// attribute's distinct out-of-vocabulary values in the dirty relation.
func minedTables(t *testing.T, name string, rows, rules int) ([]*valueTable, [][]string) {
	t.Helper()
	d, err := dataset.ByName(name, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	dirty, _, err := noise.Inject(d.Rel, noise.Config{
		Rate: 0.10, TypoFraction: 0.5, Attrs: d.NoiseAttrs, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rulegen.MineConsistent(d.Rel, dirty, d.FDs, rulegen.Config{MaxRules: rules, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := compileRules(rs)
	var tables []*valueTable
	var misses [][]string
	for _, a := range c.relevant {
		tbl := c.tables[a]
		seen := make(map[string]bool)
		var oovs []string
		for _, row := range dirty.Rows() {
			v := row[a]
			if !seen[v] && tbl.code(v) == oov {
				seen[v] = true
				oovs = append(oovs, v)
			}
		}
		tables = append(tables, tbl)
		misses = append(misses, oovs)
	}
	return tables, misses
}

// TestValueTableProbeLengths: a Σ-vocabulary lookup costs O(1) probes on
// the key shapes real vocabularies have — fixed-length ids, codes, zips
// and phones, keys that differ only past their first 8 bytes, and the
// vocabularies mined from hosp and uis. A sample hash whose mix cancels
// the a-sample hashes every key of one length alike, and every such key
// then walks one cluster as long as the vocabulary.
func TestValueTableProbeLengths(t *testing.T) {
	type vocabCase struct {
		name   string
		tables []*valueTable
		misses [][]string
	}
	fixed := func(name string, vocab, misses []string) vocabCase {
		return vocabCase{name, []*valueTable{vocabTable(vocab)}, [][]string{misses}}
	}
	var cases []vocabCase
	ids, idMiss := fixedVocab("%06d", 1000, 1000, func(i int) int { return 10000 + 37*i })
	cases = append(cases, fixed("6-digit ids", ids, idMiss))
	var codes, codeMiss []string
	for a := 'A'; a <= 'Z'; a++ {
		for b := 'A'; b <= 'Z'; b++ {
			codes = append(codes, string([]rune{a, b}))
			codeMiss = append(codeMiss, string([]rune{a + 'a' - 'A', b}))
		}
	}
	cases = append(cases, fixed("two-letter codes", codes, codeMiss))
	zips, zipMiss := fixedVocab("%05d", 800, 800, func(i int) int { return 35000 + 2*i + i/800 })
	cases = append(cases, fixed("5-digit zips", zips, zipMiss))
	phones, phoneMiss := fixedVocab("205%07d", 1000, 1000, func(i int) int { return 5550000 + 13*i })
	cases = append(cases, fixed("10-digit phones", phones, phoneMiss))
	// One 8-byte prefix, so one tag: only the last window separates them.
	var long, longMiss []string
	for i := 0; i < 1200; i++ {
		s := fmt.Sprintf("PROVIDER%0*d", 1+i%8, i*7919%100000000)
		if i < 600 {
			long = append(long, s)
		} else {
			longMiss = append(longMiss, s)
		}
	}
	cases = append(cases, fixed("9-16-byte keys sharing 8 bytes", long, longMiss))
	if !testing.Short() {
		hosp, hospMiss := minedTables(t, "hosp", 20000, 500)
		cases = append(cases, vocabCase{"mined hosp Σ", hosp, hospMiss})
		uis, uisMiss := minedTables(t, "uis", 8000, 100)
		cases = append(cases, vocabCase{"mined uis Σ", uis, uisMiss})
	}
	for _, tc := range cases {
		pm := measureProbes(tc.tables, tc.misses)
		t.Logf("%s: %.2f probes/hit over %d keys, %.2f probes/miss over %d misses",
			tc.name, pm.hitMean, pm.hits, pm.missMean, pm.misses)
		if pm.hits == 0 || pm.misses == 0 {
			t.Errorf("%s: measured %d hits and %d misses, want both", tc.name, pm.hits, pm.misses)
		}
		if pm.hitMean > 2 {
			t.Errorf("%s: %.2f probes per hit, want at most 2", tc.name, pm.hitMean)
		}
		if pm.missMean > 4 {
			t.Errorf("%s: %.2f probes per miss, want at most 4", tc.name, pm.missMean)
		}
	}
}

// splitVocab decodes a fuzz input into keys: each key is one length byte
// (taken mod 25, so lengths 0..24 straddle both 8-byte windows) followed
// by that many bytes, truncated at the end of the input.
func splitVocab(data []byte) []string {
	var keys []string
	for len(data) > 0 {
		n := min(int(data[0])%25, len(data)-1)
		keys = append(keys, string(data[1:1+n]))
		data = data[1+n:]
	}
	return keys
}

// encodeVocab is splitVocab's inverse, for building seeds.
func encodeVocab(keys ...string) []byte {
	var data []byte
	for _, k := range keys {
		data = append(append(data, byte(len(k))), k...)
	}
	return data
}

// FuzzValueTable is the vocabulary tables' differential target: for an
// arbitrary vocabulary and probe, code, codeB and a Go map must agree on
// every key, on the probe, and on each key with its last byte changed or
// dropped.
func FuzzValueTable(f *testing.F) {
	var ladder []string
	for n := 0; n <= 16; n++ {
		ladder = append(ladder, "abcdefghijklmnopq"[:n])
	}
	f.Add(encodeVocab(ladder...), "abcdefgh")
	f.Add(encodeVocab(ladder...), "abcdefgi")
	// One length and one first-8-byte tag, so only the tail decides.
	f.Add(encodeVocab("prefix00A", "prefix00B", "prefix00C", "prefix00AB"), "prefix00D")
	// Same length, same first and last 8 bytes: one hash and one tag, and
	// only the middle bytes tell them apart.
	f.Add(encodeVocab("01234567-x-89abcdef", "01234567-y-89abcdef", "01234567-z-89abcdef"),
		"01234567-w-89abcdef")
	// At 4..7 bytes the halves overlap; at 1..3 the middle byte is sampled.
	f.Add(encodeVocab("abca", "abcab", "abcabc", "abcabca", "aba", "aa", "a"), "abab")
	f.Add(encodeVocab("000001", "000002", "000003", "100000", "200000"), "000004")
	f.Fuzz(func(t *testing.T, data []byte, probe string) {
		keys := splitVocab(data)
		want := make(map[string]uint32, len(keys))
		for _, k := range keys {
			if _, ok := want[k]; !ok {
				want[k] = uint32(len(want) + 1)
			}
		}
		tbl := newValueTable(want)
		check := func(s string) {
			w := want[s] // absent: oov
			if got := tbl.code(s); got != w {
				t.Fatalf("code(%q) = %d, map says %d (vocabulary %q)", s, got, w, keys)
			}
			if got := tbl.codeB([]byte(s)); got != w {
				t.Fatalf("codeB(%q) = %d, map says %d (vocabulary %q)", s, got, w, keys)
			}
		}
		check(probe)
		for _, k := range keys {
			check(k)
			if n := len(k); n > 0 {
				check(k[:n-1])
				check(k[:n-1] + string(k[n-1]^1))
			}
		}
	})
}

// BenchmarkValueTableCode is the coding layer's unit cost: one lookup of a
// fixed-length key against a 1000-key vocabulary of 6-digit ids, for hits
// and same-length misses, through the string and the byte-slice probe.
func BenchmarkValueTableCode(b *testing.B) {
	ids, misses := fixedVocab("%06d", 1000, 1000, func(i int) int { return 10000 + 37*i })
	tbl := vocabTable(ids)
	toBytes := func(keys []string) [][]byte {
		bs := make([][]byte, len(keys))
		for i, k := range keys {
			bs[i] = []byte(k)
		}
		return bs
	}
	for _, set := range []struct {
		name string
		keys []string
		hit  bool
	}{{"hit", ids, true}, {"miss", misses, false}} {
		b.Run("code/"+set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if (tbl.code(set.keys[i%len(set.keys)]) != oov) != set.hit {
					b.Fatal("wrong lookup result")
				}
			}
		})
		bkeys := toBytes(set.keys)
		b.Run("codeB/"+set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if (tbl.codeB(bkeys[i%len(bkeys)]) != oov) != set.hit {
					b.Fatal("wrong lookup result")
				}
			}
		})
	}
}
