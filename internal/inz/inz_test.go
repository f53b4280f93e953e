package inz

import (
	"testing"
	"testing/quick"
)

func TestFoldWordExamples(t *testing.T) {
	cases := []struct{ in, want uint32 }{
		{0, 0},
		// +1: sign 0, value bits unchanged, shifted up one.
		{1, 2},
		// -1 = 0xffffffff: sign 1, value bits 0x7fffffff invert to 0, LSB 1.
		{0xffffffff, 1},
		// -2 = 0xfffffffe: value 0x7ffffffe -> ^ 0x7fffffff = 1 -> 0b11.
		{0xfffffffe, 3},
	}
	for _, c := range cases {
		if got := FoldWord(c.in); got != c.want {
			t.Errorf("FoldWord(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestFoldSmallMagnitudesSmall(t *testing.T) {
	// The whole point of the fold: |v| < 2^20 must fold below 2^21.
	for _, v := range []int32{-1 << 20, -12345, -1, 0, 1, 12345, 1<<20 - 1} {
		f := FoldWord(uint32(v))
		if f >= 1<<21 {
			t.Errorf("FoldWord(%d) = %#x, not small", v, f)
		}
	}
}

func TestFoldRoundTrip(t *testing.T) {
	f := func(w uint32) bool { return UnfoldWord(FoldWord(w)) == w }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	f := func(a, b, c, d uint32, m8 uint8) bool {
		m := int(m8)%4 + 1
		words := []uint32{a, b, c, d}[:m]
		hi, lo := interleave(words)
		got := deinterleave(hi, lo, m)
		for i := range words {
			if got[i] != words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeAllZero(t *testing.T) {
	e := Encode([4]uint32{})
	if e.WireBytes() != 0 || e.Raw {
		t.Fatalf("zero payload should cost 0 bytes, got %d raw=%v", e.WireBytes(), e.Raw)
	}
	if Decode(e) != [4]uint32{} {
		t.Fatal("zero payload round trip failed")
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	f := func(a, b, c, d uint32) bool {
		quad := [4]uint32{a, b, c, d}
		return Decode(Encode(quad)) == quad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRoundTripSmallValues(t *testing.T) {
	// The common case the encoding optimizes for: small signed values.
	f := func(a, b, c, d int16) bool {
		quad := [4]uint32{uint32(a), uint32(b), uint32(c), uint32(d)}
		return Decode(Encode(quad)) == quad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeNeverExceedsRaw(t *testing.T) {
	f := func(a, b, c, d uint32) bool {
		return Encode([4]uint32{a, b, c, d}).WireBytes() <= RawBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeSmallValuesCompress(t *testing.T) {
	// Four values below 2^11 fold below 2^12, interleave into 48 bits,
	// +2 tag bits = 50 bits -> 7 bytes (vs 16 raw).
	e := Encode([4]uint32{100, ^uint32(199), 300, ^uint32(399)}) // {100, -200, 300, -400}
	if e.Raw {
		t.Fatal("small payload must not abandon")
	}
	if e.WireBytes() > 7 {
		t.Fatalf("small payload cost %d bytes, want <= 7", e.WireBytes())
	}
}

func TestEncodePaperExample(t *testing.T) {
	// Figure 7's shape: two-word payload (words 2,3 zero), 8 bytes of input
	// compressing so that 5 bytes of leading zeros are eliminated, i.e. the
	// result occupies 3 bytes. Two words with ~11 significant folded bits
	// interleave into <=22 bits, +2 = 24 bits = 3 bytes.
	e := Encode([4]uint32{^uint32(320), 654, 0, 0}) // {-321, 654, 0, 0}
	if e.Raw || e.WireBytes() != 3 {
		t.Fatalf("two-small-word payload = %d bytes raw=%v, want 3 bytes", e.WireBytes(), e.Raw)
	}
}

func TestEncodeAbandon(t *testing.T) {
	// Four full-range words interleave to >126 bits -> abandoned, 16 bytes.
	quad := [4]uint32{0xdeadbeef, 0xcafebabe, 0x12345678, 0x9abcdef0}
	e := Encode(quad)
	if !e.Raw || e.WireBytes() != 16 {
		t.Fatalf("full-entropy payload: raw=%v bytes=%d, want raw 16", e.Raw, e.WireBytes())
	}
	if Decode(e) != quad {
		t.Fatal("raw round trip failed")
	}
}

func TestEncodeBoundary126Bits(t *testing.T) {
	// Vector exactly 128 bits (126 significant + 2 tag) must NOT abandon.
	// Four words each with bit 30 set (folded bit 31... careful: fold shifts
	// up). Use folded values directly: choose inputs whose folds have bit 31
	// clear but bit 30 set. FoldWord(v)=v<<1 for positive v, so v=2^29 gives
	// fold 2^30: interleaved top position = 30*4+3 = 123, +2 = 126 bits. OK.
	quad := [4]uint32{1 << 29, 1 << 29, 1 << 29, 1 << 29}
	e := Encode(quad)
	if e.Raw {
		t.Fatal("126-bit vector must not abandon")
	}
	if Decode(e) != quad {
		t.Fatal("round trip failed")
	}
	// Positive v=2^30 folds to 2^31: top position 31*4+3=127, +2=129 -> abandon.
	quad2 := [4]uint32{1 << 30, 1 << 30, 1 << 30, 1 << 30}
	if !Encode(quad2).Raw {
		t.Fatal("129-bit vector must abandon")
	}
}

func TestEncodeSingleWord(t *testing.T) {
	// Only word 0 non-zero: k=0, vector = fold<<2.
	e := Encode([4]uint32{5, 0, 0, 0})
	if e.Raw || e.WireBytes() != 1 {
		t.Fatalf("tiny single word = %d bytes, want 1", e.WireBytes())
	}
	if got := Decode(e); got != [4]uint32{5, 0, 0, 0} {
		t.Fatalf("round trip = %v", got)
	}
}

func TestEncodeHighWordOnly(t *testing.T) {
	// Only word 3 non-zero: k=3, zero words below still interleave.
	quad := [4]uint32{0, 0, 0, 7}
	e := Encode(quad)
	if e.Raw {
		t.Fatal("should not abandon")
	}
	if Decode(e) != quad {
		t.Fatal("round trip failed")
	}
}

func TestDecodeRawLength(t *testing.T) {
	quad := [4]uint32{1, 2, 3, 4}
	raw := Encoded{Data: rawBytes(quad), Raw: true}
	if Decode(raw) != quad {
		t.Fatal("rawBytes/Decode mismatch")
	}
}

func TestMonotoneByteCount(t *testing.T) {
	// Larger magnitudes can never cost fewer bytes for single-word loads.
	prev := 0
	for shift := 0; shift < 31; shift++ {
		e := Encode([4]uint32{1 << shift, 0, 0, 0})
		if e.WireBytes() < prev {
			t.Fatalf("byte count not monotone at shift %d", shift)
		}
		prev = e.WireBytes()
	}
}

func TestTruncateBytesNeverBeatsRawByMuch(t *testing.T) {
	f := func(a, b, c, d uint32) bool {
		n := TruncateBytes([4]uint32{a, b, c, d})
		return n >= 1 && n <= RawBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaveBeatsTruncateOnCorrelatedMagnitudes(t *testing.T) {
	// The claim behind the INZ-interleave ablation: equal-magnitude words
	// favor INZ.
	quad := [4]uint32{1<<20 - 1, 1<<20 - 3, 1<<20 - 7, 1<<20 - 5}
	inzBytes := Encode(quad).WireBytes()
	truncBytes := TruncateBytes(quad)
	if inzBytes >= truncBytes {
		t.Fatalf("INZ %dB should beat truncation %dB on correlated payloads", inzBytes, truncBytes)
	}
}

func BenchmarkEncodeSmall(b *testing.B) {
	quad := [4]uint32{^uint32(99), 200, ^uint32(299), 400}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(quad)
	}
}

func BenchmarkEncodeFullEntropy(b *testing.B) {
	quad := [4]uint32{0xdeadbeef, 0xcafebabe, 0x12345678, 0x9abcdef0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(quad)
	}
}

func BenchmarkDecodeSmall(b *testing.B) {
	e := Encode([4]uint32{^uint32(99), 200, ^uint32(299), 400})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Decode(e)
	}
}
