// Package inz implements Interleaved Non-Zero encoding (Section IV-A), the
// Anton 3 payload compression scheme for flit payloads of up to four signed
// 32-bit words. The encoding maximizes leading zeros so that the most
// significant zero bytes can be dropped when payloads are packed into
// fixed-length channel frames:
//
//  1. the most significant non-zero word k is determined (0-4 non-zero words);
//  2. each word is sign-folded: the sign bit moves to the LSB and the
//     remaining bits are conditionally inverted (the paper's invert_word);
//  3. words 0..k are interleaved bitwise, so the leading zeros of all words
//     pool at the top of the vector;
//  4. the 2-bit value k is concatenated at the least-significant end;
//  5. the number of significant bytes is counted. If the vector exceeds 128
//     bits the encoding is abandoned and the original 16 bytes are sent
//     (the "16 valid bytes" special case).
//
// In hardware this is a single-cycle operation at 2.8 GHz. The channel model
// needs only the byte count it produces, which Size computes in closed form
// without building the encoding; that is what a compressing channel charges
// per payload. Encode and Decode are the reference codec: their exact round
// trip is the proof that the format is lossless, and Encode is the oracle
// Size is tested against.
package inz

import "math/bits"

// WordsPerQuad is the payload width: one flit carries a 128-bit payload of
// four 32-bit words.
const WordsPerQuad = 4

// RawBytes is the size of an uncompressed payload.
const RawBytes = 4 * WordsPerQuad

// Encoded is the result of compressing one payload.
type Encoded struct {
	// Data holds the significant bytes of the encoded vector,
	// least-significant byte first. Empty means an all-zero payload.
	Data []byte
	// Raw reports that encoding was abandoned (vector exceeded 128 bits)
	// and Data holds the original 16 payload bytes verbatim.
	Raw bool
}

// WireBytes is the number of payload bytes that must cross the channel.
func (e Encoded) WireBytes() int { return len(e.Data) }

// FoldWord moves the sign bit of w to the least significant position and
// conditionally inverts the value bits, exactly as the paper's
// SystemVerilog invert_word:
//
//	return {{31{w[31]}} ^ w[30:0], w[31]};
//
// Small negative numbers, which have many leading ones, become small
// positive-looking values with many leading zeros.
func FoldWord(w uint32) uint32 {
	sign := w >> 31
	mask := uint32(0)
	if sign == 1 {
		mask = 0x7fffffff
	}
	return ((w&0x7fffffff)^mask)<<1 | sign
}

// UnfoldWord inverts FoldWord.
func UnfoldWord(f uint32) uint32 {
	sign := f & 1
	v := f >> 1
	if sign == 1 {
		v ^= 0x7fffffff
	}
	return v | sign<<31
}

// interleave spreads bit b of word j to position b*m + j of a 128-bit
// vector, for the m = len(words) low words of the payload.
func interleave(words []uint32) (hi, lo uint64) {
	m := len(words)
	for j, w := range words {
		for w != 0 {
			b := bits.TrailingZeros32(w)
			w &^= 1 << b
			pos := b*m + j
			if pos < 64 {
				lo |= 1 << pos
			} else {
				hi |= 1 << (pos - 64)
			}
		}
	}
	return hi, lo
}

// deinterleave inverts interleave for an m-word vector.
func deinterleave(hi, lo uint64, m int) []uint32 {
	words := make([]uint32, m)
	for lo != 0 {
		pos := bits.TrailingZeros64(lo)
		lo &^= 1 << pos
		words[pos%m] |= 1 << (pos / m)
	}
	for hi != 0 {
		pos := bits.TrailingZeros64(hi) + 64
		hi &^= 1 << (pos - 64)
		words[pos%m] |= 1 << (pos / m)
	}
	return words
}

// Size returns the wire length Encode would produce for quad, and whether
// it would abandon the encoding, without building it. Interleaving puts bit
// b of folded word j at position b*m + j (m = k+1 words, k the most
// significant non-zero word), so the vector's significant width is the
// largest such position of any word's top set bit, plus one.
func Size(quad [WordsPerQuad]uint32) (n int, raw bool) {
	k := WordsPerQuad - 1
	for k >= 0 && quad[k] == 0 {
		k--
	}
	if k < 0 {
		return 0, false
	}
	m := k + 1
	sig := 0
	for j := 0; j <= k; j++ {
		f := FoldWord(quad[j])
		if f == 0 {
			continue
		}
		if s := (bits.Len32(f)-1)*m + j + 1; s > sig {
			sig = s
		}
	}
	total := sig + 2 // the 2-bit k tag at the LSB end
	if total > 128 {
		return RawBytes, true
	}
	return (total + 7) / 8, false
}

// Encode compresses a four-word payload.
func Encode(quad [WordsPerQuad]uint32) Encoded {
	// Most significant non-zero word.
	k := -1
	for i := WordsPerQuad - 1; i >= 0; i-- {
		if quad[i] != 0 {
			k = i
			break
		}
	}
	if k < 0 {
		// No non-zero words: zero payload bytes on the wire.
		return Encoded{}
	}

	folded := make([]uint32, k+1)
	for i := 0; i <= k; i++ {
		folded[i] = FoldWord(quad[i])
	}
	hi, lo := interleave(folded)

	sig := significantBits(hi, lo)
	total := sig + 2 // the 2-bit k tag at the LSB end
	if total > 128 {
		// Abandon: send the original payload, 16 valid bytes.
		return Encoded{Data: rawBytes(quad), Raw: true}
	}

	// vector = interleaved << 2 | k
	vhi := hi<<2 | lo>>62
	vlo := lo<<2 | uint64(k)
	n := (total + 7) / 8
	data := make([]byte, n)
	for i := 0; i < n; i++ {
		var b byte
		if i < 8 {
			b = byte(vlo >> (8 * i))
		} else {
			b = byte(vhi >> (8 * (i - 8)))
		}
		data[i] = b
	}
	return Encoded{Data: data}
}

func significantBits(hi, lo uint64) int {
	if hi != 0 {
		return 128 - bits.LeadingZeros64(hi)
	}
	return 64 - bits.LeadingZeros64(lo)
}

func rawBytes(quad [WordsPerQuad]uint32) []byte {
	data := make([]byte, RawBytes)
	for i, w := range quad {
		data[4*i+0] = byte(w)
		data[4*i+1] = byte(w >> 8)
		data[4*i+2] = byte(w >> 16)
		data[4*i+3] = byte(w >> 24)
	}
	return data
}

// Decode reconstructs the payload from its wire form. It accepts anything
// Encode produces; malformed input of a legal length decodes to some
// payload (garbage in, garbage out — the hardware has no checksums at this
// layer either, CRC protection lives on the channel frame).
func Decode(e Encoded) [WordsPerQuad]uint32 {
	var quad [WordsPerQuad]uint32
	if e.Raw {
		for i := 0; i < WordsPerQuad; i++ {
			quad[i] = uint32(e.Data[4*i]) | uint32(e.Data[4*i+1])<<8 |
				uint32(e.Data[4*i+2])<<16 | uint32(e.Data[4*i+3])<<24
		}
		return quad
	}
	if len(e.Data) == 0 {
		return quad
	}
	var vhi, vlo uint64
	for i, b := range e.Data {
		if i < 8 {
			vlo |= uint64(b) << (8 * i)
		} else {
			vhi |= uint64(b) << (8 * (i - 8))
		}
	}
	k := int(vlo & 3)
	hi := vhi >> 2
	lo := vlo>>2 | vhi<<62
	folded := deinterleave(hi, lo, k+1)
	for i, f := range folded {
		quad[i] = UnfoldWord(f)
	}
	return quad
}
