package fixp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPosRoundTrip(t *testing.T) {
	f := func(x, y, z int16) bool {
		v := Vec{float64(x) / 7, float64(y) / 7, float64(z) / 7}
		got := PosToVec(PosToFixed(v))
		tol := 1.5 / PosUnitsPerAngstrom
		return math.Abs(got.X-v.X) < tol && math.Abs(got.Y-v.Y) < tol && math.Abs(got.Z-v.Z) < tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForceRoundTrip(t *testing.T) {
	v := Vec{12.5, -3.25, 0.0001}
	got := ForceToVec(ForceToFixed(v))
	tol := 1.0 / ForceUnitsPerKcalMolA
	if math.Abs(got.X-v.X) > tol || math.Abs(got.Y-v.Y) > tol || math.Abs(got.Z-v.Z) > tol {
		t.Fatalf("force round trip %v -> %v", v, got)
	}
}

func TestRoundingSymmetric(t *testing.T) {
	// -x must quantize to the negation of x's quantization.
	f := func(milli int32) bool {
		x := float64(milli) / 1000
		return PosToFixed(Vec{X: x}).X == -PosToFixed(Vec{X: -x}).X
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVecAlgebra(t *testing.T) {
	a, b := Vec{1, 2, 3}, Vec{4, 5, 6}
	if a.Add(b) != (Vec{5, 7, 9}) || b.Sub(a) != (Vec{3, 3, 3}) {
		t.Fatal("Add/Sub broken")
	}
	if a.Dot(b) != 32 || a.Scale(2) != (Vec{2, 4, 6}) {
		t.Fatal("Dot/Scale broken")
	}
	if a.Norm2() != 14 {
		t.Fatal("Norm2 broken")
	}
}

func TestFixedWordsRoundTrip(t *testing.T) {
	f := Fixed{X: -100000, Y: 200000, Z: -300000}
	if FixedFromWords(f.Words()) != f {
		t.Fatal("Words/FromWords round trip")
	}
	if f.Words()[3] != 0 {
		t.Fatal("word 3 should be zero (atom identity lives in the header)")
	}
}

func TestFixedCoordAccessors(t *testing.T) {
	f := Fixed{X: 1, Y: 2, Z: 3}
	for c := 0; c < 3; c++ {
		if f.Coord(c) != int32(c+1) {
			t.Fatalf("Coord(%d) = %d", c, f.Coord(c))
		}
		g := f.WithCoord(c, 9)
		if g.Coord(c) != 9 {
			t.Fatal("WithCoord broken")
		}
	}
}

func TestFixedWrapArithmetic(t *testing.T) {
	a := Fixed{X: math.MaxInt32}
	b := Fixed{X: 1}
	if a.Add(b).X != math.MinInt32 {
		t.Fatal("two's-complement wraparound expected")
	}
	if b.Sub(a).X != math.MinInt32+2 {
		t.Fatal("Sub wraparound expected")
	}
}

func TestScalesGiveINZFriendlyMagnitudes(t *testing.T) {
	// A 50 A home-box-relative position must stay under 2^23; a typical
	// 20 kcal/mol/A force under 2^18 — the magnitude regimes the INZ
	// compression bands rely on.
	p := PosToFixed(Vec{X: 50})
	if p.X <= 0 || p.X >= 1<<23 {
		t.Fatalf("50 A position = %d units", p.X)
	}
	fr := ForceToFixed(Vec{X: 20})
	if fr.X <= 0 || fr.X >= 1<<18 {
		t.Fatalf("20 kcal/mol/A force = %d units", fr.X)
	}
}
