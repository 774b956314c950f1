package store

// Bytes is the key type set of SampleHash: an interned string or a raw
// byte-slice cell, so a probe straight from a CSV buffer and the interned
// key it must find hash identically without a conversion.
type Bytes interface{ ~string | ~[]byte }

// Load64 reads 8 little-endian bytes of s at offset i. The byte-shift form
// compiles to a single unaligned load on amd64 and arm64.
func Load64[T Bytes](s T, i int) uint64 {
	_ = s[i+7]
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}

// load32 reads 4 little-endian bytes of s at offset i.
func load32[T Bytes](s T, i int) uint64 {
	_ = s[i+3]
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24
}

// SampleHash hashes the length and the first and last 8 bytes of a
// non-empty key; it is the hash of every frozen Σ vocabulary and every
// per-column intern table. It also returns the a-sample as a slot tag: for
// n <= 8 the sample reads every byte of s — overlapping where the halves
// meet — so for a fixed length it is injective, and equal tag plus equal
// length means equal keys. Longer keys can use it as a first-word
// prefilter before the full compare.
//
// The a-sample must pass through a multiply before the last window is
// xored in. Where the two windows are the same bytes (an 8-byte key), an
// xor-only fold such as (a ^ n*K) ^ z cancels a and leaves a hash of the
// length alone: every key of one length then shares a single probe
// cluster. TestValueTableProbeLengths (internal/repair) guards this.
func SampleHash[T Bytes](s T) (h uint32, tag uint64) {
	n := len(s)
	var a, z uint64
	switch {
	case n >= 8:
		a, z = Load64(s, 0), Load64(s, n-8)
	case n >= 4:
		a = load32(s, 0) | load32(s, n-4)<<32
	default: // 1..3 bytes
		a = uint64(s[0]) | uint64(s[n>>1])<<8 | uint64(s[n-1])<<16
	}
	x := (a ^ uint64(n)) * 0x9E3779B97F4A7C15
	x = (x ^ z) * 0xC2B2AE3D27D4EB4F
	x ^= x >> 29
	x *= 0x165667B19E3779F9
	x ^= x >> 32
	return uint32(x), a
}
