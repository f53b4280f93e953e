package inz

import "math/bits"

// TruncateBytes models the obvious alternative to INZ — per-word sign-fold
// plus independent leading-zero-byte truncation, with a 2-bit length tag per
// word — and returns only the wire byte count
// (experiments.AblationINZInterleave compares aggregate byte counts, not
// wire formats).
//
// Interleaving wins whenever word magnitudes are correlated: four 20-bit
// values cost 4x3=12 bytes truncated but only ceil((4*20+2)/8)=11 bytes
// interleaved, and the gap grows as magnitudes shrink.
func TruncateBytes(quad [WordsPerQuad]uint32) int {
	total := 1 // 8-bit header: 2-bit length per word
	for _, w := range quad {
		f := FoldWord(w)
		total += (32 - bits.LeadingZeros32(f) + 7) / 8
	}
	if total > RawBytes {
		return RawBytes
	}
	return total
}
