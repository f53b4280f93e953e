package topo

import "fmt"

// The on-chip Core Network is a 2D mesh of Core Routers. The paper names its
// dimensions U (horizontal, 24 columns of Core Tiles) and V (vertical,
// 12 rows) to keep them distinct from the torus dimensions.

// Anton 3 floorplan constants (Section II-B).
const (
	CoreCols     = 24 // Core Tile columns per ASIC
	CoreRows     = 12 // Core Tile rows per ASIC
	EdgeTileRows = 12 // Edge Tiles per side
	EdgeCols     = 3  // Edge Router columns per Edge Network
	GCsPerTile   = 2  // Geometry Cores per Core Tile
	PPIMsPerTile = 2  // Pairwise Point Interaction Modules per Core Tile
	ICBsPerEdge  = 2  // Interaction Control Blocks per Edge Tile
	ERTRsPerEdge = 3  // Edge Routers per Edge Tile

	// SERDES provisioning (Table I / Section II-B).
	SerdesLanes       = 96 // bi-directional lanes per ASIC
	SerdesPerNeighbor = 16 // lanes to each of the six torus neighbors
	SerdesGbps        = 29 // per-lane, per-direction bandwidth
)

// Side identifies which edge of the chip an Edge Network is on.
type Side uint8

// Chip sides.
const (
	Left Side = iota
	Right
)

func (sd Side) String() string {
	if sd == Left {
		return "left"
	}
	return "right"
}

// MeshCoord locates a Core Tile on the on-chip mesh: U is the column
// (0..CoreCols-1, increasing left to right), V is the row (0..CoreRows-1).
type MeshCoord struct {
	U, V int
}

func (m MeshCoord) String() string { return fmt.Sprintf("[u%d,v%d]", m.U, m.V) }

// ChipShape is the dimensions of one chip's Core Tile array. Tests use
// scaled-down shapes; production Anton 3 is DefaultChipShape.
type ChipShape struct {
	Cols, Rows int
}

// DefaultChipShape is the real Anton 3 floorplan: 24 x 12 Core Tiles.
var DefaultChipShape = ChipShape{Cols: CoreCols, Rows: CoreRows}

// Valid reports whether the shape has at least one tile.
func (cs ChipShape) Valid() bool { return cs.Cols >= 1 && cs.Rows >= 1 }

// Tiles reports the Core Tile count.
func (cs ChipShape) Tiles() int { return cs.Cols * cs.Rows }

// Contains reports whether m is a legal tile coordinate.
func (cs ChipShape) Contains(m MeshCoord) bool {
	return m.U >= 0 && m.U < cs.Cols && m.V >= 0 && m.V < cs.Rows
}

// Index linearizes m (U fastest).
func (cs ChipShape) Index(m MeshCoord) int {
	if !cs.Contains(m) {
		panic(fmt.Sprintf("topo: mesh coord %v outside chip %dx%d", m, cs.Cols, cs.Rows))
	}
	return m.U + cs.Cols*m.V
}

// CoordOf is the inverse of Index.
func (cs ChipShape) CoordOf(i int) MeshCoord {
	if i < 0 || i >= cs.Tiles() {
		panic("topo: tile index out of range")
	}
	return MeshCoord{U: i % cs.Cols, V: i / cs.Cols}
}

// NearestSide reports which chip edge the tile is closer to (ties go Left)
// and the number of U hops to reach it. Packets targeting remote ASICs are
// routed directly to either edge of the chip, traveling along U only
// (Section III-B1).
func (cs ChipShape) NearestSide(m MeshCoord) (Side, int) {
	toLeft := m.U + 1 // hops to leave the array on the left
	toRight := cs.Cols - m.U
	if toLeft <= toRight {
		return Left, toLeft
	}
	return Right, toRight
}

// UVHops returns the U and V hop counts of the on-chip U->V dimension-order
// route between two tiles.
func UVHops(a, b MeshCoord) (uHops, vHops int) {
	return abs(a.U - b.U), abs(a.V - b.V)
}
