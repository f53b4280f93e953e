package resultstore

import "testing"

type probeCfg struct {
	Shape, Policy, Pattern string
	QueueFlits, InjDepth   int
	Load                   float64
	Packets, Warmup        int
}

func refCfg() probeCfg {
	return probeCfg{
		Shape: "4x4x8", Policy: "xyz", Pattern: "bitcomp",
		QueueFlits: 64, InjDepth: 8,
		Load: 1.5, Packets: 96, Warmup: 32,
	}
}

// goldenRefKey pins the canonical hash across process restarts, Go
// versions and hosts: the disk tier is only sound if today's binary
// derives the same key yesterday's binary stored under. If this test
// ever fails after an intentional encoding change, bump SchemaVersion
// and re-pin — never re-pin without the bump.
const goldenRefKey = "flow/point/2ce2d2a0e36d701bc1b44f82e5c614425bc72a2188f0e40ffc42c484e12365b2"

func TestKeyGoldenStability(t *testing.T) {
	if got := KeyFor("flow/point", 21, refCfg()).String(); got != goldenRefKey {
		t.Fatalf("canonical key drifted:\n got  %s\n want %s\n(an intentional encoding change must bump SchemaVersion)", got, goldenRefKey)
	}
}

func TestKeySensitivity(t *testing.T) {
	base := KeyFor("flow/point", 21, refCfg())
	if k := KeyFor("flow/point", 22, refCfg()); k == base {
		t.Fatal("seed change did not change the key")
	}
	if k := KeyFor("cell/netsweep", 21, refCfg()); k == base {
		t.Fatal("kind change did not change the key")
	}
	cfg := refCfg()
	cfg.Load = 1.5000000000000002 // one ulp
	if k := KeyFor("flow/point", 21, cfg); k == base {
		t.Fatal("one-ulp float change did not change the key")
	}
	if k := keyForV(SchemaVersion+1, "flow/point", 21, refCfg()); k == base {
		t.Fatal("schema version bump did not change the key")
	}
}

// TestKeyMapOrderIndependent pins the canonicalization the issue names:
// maps hash by sorted entry encoding, never by iteration order.
func TestKeyMapOrderIndependent(t *testing.T) {
	a := map[string][]float64{}
	b := map[string][]float64{}
	entries := map[string][]float64{
		"loads": {0.5, 1, 2, 3, 4}, "warm": {32}, "pkts": {96}, "knee": {1.086},
	}
	for k, v := range entries {
		a[k] = v
	}
	for _, k := range []string{"warm", "knee", "loads", "pkts"} {
		b[k] = entries[k]
	}
	ka, kb := KeyFor("t", 0, a), KeyFor("t", 0, b)
	if ka != kb {
		t.Fatalf("equal maps hashed differently: %s vs %s", ka, kb)
	}
	b["loads"] = []float64{0.5, 1, 2, 3}
	if KeyFor("t", 0, b) == ka {
		t.Fatal("changed map value did not change the key")
	}
}

// TestKeyStructLayoutIndependent: field declaration order (and therefore
// memory layout and padding) must not leak into the hash — only the
// (name, value) set counts.
func TestKeyStructLayoutIndependent(t *testing.T) {
	type ordered struct {
		A int8
		B int64
		C string
	}
	type shuffled struct {
		C string
		B int64
		A int8
		u uint32 // unexported scratch must not participate
	}
	ka := KeyFor("t", 0, ordered{A: 7, B: 9, C: "x"})
	kb := KeyFor("t", 0, shuffled{A: 7, B: 9, C: "x", u: 0xdead})
	if ka != kb {
		t.Fatalf("same (name, value) set hashed differently across layouts: %s vs %s", ka, kb)
	}
	if KeyFor("t", 0, &ordered{A: 7, B: 9, C: "x"}) != ka {
		t.Fatal("pointer-to-config hashed differently from config")
	}
}

func TestKeyUnhashablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("hashing a func field did not panic")
		}
	}()
	KeyFor("t", 0, struct{ F func() }{F: func() {}})
}

func TestZeroKeyInvalid(t *testing.T) {
	var k Key
	if k.Valid() {
		t.Fatal("zero Key reports Valid")
	}
	s, err := Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(k, 42)
	var out int
	if s.Get(k, &out) {
		t.Fatal("zero Key hit the store")
	}
	if st := s.Stats(); st.Stored != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("zero-key traffic counted: %+v", st)
	}
}
