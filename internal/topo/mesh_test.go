package topo

import "testing"

func TestDefaultChipShape(t *testing.T) {
	cs := DefaultChipShape
	if cs.Tiles() != 288 {
		t.Fatalf("core tiles = %d, want 288 (24x12, the Core Router count of Table II)", cs.Tiles())
	}
	if !cs.Valid() {
		t.Fatal("default chip shape invalid")
	}
}

func TestChipIndexRoundTrip(t *testing.T) {
	cs := ChipShape{Cols: 5, Rows: 3}
	for i := 0; i < cs.Tiles(); i++ {
		if cs.Index(cs.CoordOf(i)) != i {
			t.Fatalf("round trip failed at %d", i)
		}
	}
}

func TestChipIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range mesh Index did not panic")
		}
	}()
	DefaultChipShape.Index(MeshCoord{U: CoreCols, V: 0})
}

func TestNearestSide(t *testing.T) {
	cs := DefaultChipShape
	side, hops := cs.NearestSide(MeshCoord{U: 0, V: 5})
	if side != Left || hops != 1 {
		t.Fatalf("leftmost tile: side=%v hops=%d, want left/1", side, hops)
	}
	side, hops = cs.NearestSide(MeshCoord{U: 23, V: 5})
	if side != Right || hops != 1 {
		t.Fatalf("rightmost tile: side=%v hops=%d, want right/1", side, hops)
	}
	// Middle-left tile U=11: 12 hops to the left, 13 to the right.
	side, hops = cs.NearestSide(MeshCoord{U: 11, V: 0})
	if side != Left || hops != 12 {
		t.Fatalf("U=11: side=%v hops=%d, want left/12", side, hops)
	}
}

func TestUVHops(t *testing.T) {
	u, v := UVHops(MeshCoord{2, 3}, MeshCoord{7, 1})
	if u != 5 || v != 2 {
		t.Fatalf("UVHops = %d,%d, want 5,2", u, v)
	}
}

func TestSerdesConstantsConsistent(t *testing.T) {
	// 96 lanes spread over 6 neighbors = 16 per neighbor (Section II-B).
	if SerdesLanes != 6*SerdesPerNeighbor {
		t.Fatalf("%d lanes != 6 x %d", SerdesLanes, SerdesPerNeighbor)
	}
	// Total bidirectional bandwidth: 96 lanes x 29 Gb/s x 2 dirs = 5568 Gb/s
	// = 696 GB/s, matching Table I.
	gBps := SerdesLanes * SerdesGbps * 2 / 8
	if gBps != 696 {
		t.Fatalf("total bidir bandwidth = %d GB/s, want 696", gBps)
	}
}

func TestSideString(t *testing.T) {
	if Left.String() != "left" || Right.String() != "right" {
		t.Fatal("Side.String broken")
	}
}
