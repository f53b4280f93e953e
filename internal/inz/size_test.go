package inz

import (
	"math/rand"
	"testing"
)

// edgeWords are the payload words where the fold, the interleave width or
// the 128-bit abandon boundary change behaviour: zero, small and byte-edge
// magnitudes of both signs, and the words whose folds set bit 31.
var edgeWords = []uint32{
	0, 1, 2, 255, 256, 0x40000000, 0x7fffffff, 0x80000000, 0x80000001,
	0xc0000000, 0xffffff00, 0xfffffffe, 0xffffffff,
}

// checkSize fails t unless Size agrees with the reference encoder on quad.
func checkSize(t *testing.T, quad [WordsPerQuad]uint32) {
	t.Helper()
	e := Encode(quad)
	if n, raw := Size(quad); n != len(e.Data) || raw != e.Raw {
		t.Fatalf("Size(%#x) = (%d, %v), Encode gives (%d, %v)", quad, n, raw, len(e.Data), e.Raw)
	}
}

func TestSizeMatchesEncode(t *testing.T) {
	for _, a := range edgeWords {
		for _, b := range edgeWords {
			for _, c := range edgeWords {
				for _, d := range edgeWords {
					checkSize(t, [WordsPerQuad]uint32{a, b, c, d})
				}
			}
		}
	}
	// Random quads of mixed magnitude: each word draws its width, so zero,
	// small, mid-range and full-range words of either sign sit side by
	// side in one payload.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<18; i++ {
		var quad [WordsPerQuad]uint32
		for j := range quad {
			w := uint32(rng.Uint64()) & (1<<rng.Intn(33) - 1)
			if rng.Intn(2) == 1 {
				w = -w
			}
			quad[j] = w
		}
		checkSize(t, quad)
	}
}

// addEdgeSeeds seeds a fuzz corpus with every edge word alone in each
// position and in all four at once.
func addEdgeSeeds(f *testing.F) {
	for _, w := range edgeWords {
		f.Add(w, uint32(0), uint32(0), uint32(0))
		f.Add(uint32(0), w, uint32(0), uint32(0))
		f.Add(uint32(0), uint32(0), w, uint32(0))
		f.Add(uint32(0), uint32(0), uint32(0), w)
		f.Add(w, w, w, w)
	}
}

func FuzzSizeMatchesEncode(f *testing.F) {
	addEdgeSeeds(f)
	f.Fuzz(func(t *testing.T, a, b, c, d uint32) {
		checkSize(t, [WordsPerQuad]uint32{a, b, c, d})
	})
}

func FuzzEncodeRoundTrip(f *testing.F) {
	addEdgeSeeds(f)
	f.Fuzz(func(t *testing.T, a, b, c, d uint32) {
		quad := [WordsPerQuad]uint32{a, b, c, d}
		e := Encode(quad)
		if len(e.Data) > RawBytes {
			t.Fatalf("Encode(%#x) is %d bytes, more than raw %d", quad, len(e.Data), RawBytes)
		}
		if got := Decode(e); got != quad {
			t.Fatalf("Decode(Encode(%#x)) = %#x", quad, got)
		}
	})
}

var sizeSink int

func BenchmarkSizeSmall(b *testing.B) {
	quad := [4]uint32{^uint32(99), 200, ^uint32(299), 400}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sizeSink, _ = Size(quad)
	}
}
