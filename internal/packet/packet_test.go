package packet

import (
	"testing"

	"anton3/internal/topo"
)

func TestFlitGeometry(t *testing.T) {
	// Section III-B: each flit is 192 bits = 64-bit header + 128-bit payload.
	if FlitBits != HeaderBits+PayloadBits {
		t.Fatal("flit must be header + payload")
	}
	if HeaderBytes != 8 || PayloadBytes != 16 {
		t.Fatalf("header %dB payload %dB, want 8/16", HeaderBytes, PayloadBytes)
	}
}

func TestFlitCount(t *testing.T) {
	p := &Packet{Type: CountedWrite}
	if p.Flits() != 1 {
		t.Fatal("header-only packet should be 1 flit")
	}
	p.SetQuad([4]uint32{1, 2, 3, 4})
	if p.Flits() != 2 {
		t.Fatal("payload packet should be 2 flits")
	}
	if p.WireBits() != 384 {
		t.Fatalf("WireBits = %d, want 384", p.WireBits())
	}
}

func TestTypeStrings(t *testing.T) {
	if CountedWrite.String() != "counted-write" || Type(200).String() != "Type(200)" {
		t.Fatal("Type.String broken")
	}
}

func TestQuadRoundTrip(t *testing.T) {
	p := &Packet{}
	q := [4]uint32{0xa, 0xb, 0xc, 0xd}
	p.SetQuad(q)
	if p.Quad() != q || p.Words != 4 {
		t.Fatal("SetQuad/Quad mismatch")
	}
}

func TestStringFormat(t *testing.T) {
	p := &Packet{ID: 7, Type: Position,
		SrcNode: topo.Coord{X: 0, Y: 0, Z: 0}, DstNode: topo.Coord{X: 1, Y: 2, Z: 3}}
	want := "pkt#7 position (0,0,0)->(1,2,3)"
	if p.String() != want {
		t.Fatalf("String = %q, want %q", p.String(), want)
	}
	c := CoreID{Tile: topo.MeshCoord{U: 3, V: 4}, GC: 1}
	if c.String() != "[u3,v4].gc1" {
		t.Fatalf("CoreID.String = %q", c.String())
	}
}
