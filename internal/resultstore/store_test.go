package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type point struct {
	Load, Accepted, P99 float64
	Undelivered         int
}

func refPoint() point {
	// Values with awkward decimals: the round-trip must be bit-exact.
	return point{Load: 1.0625, Accepted: 0.9482647382920001, P99: 193.74999999999997}
}

func TestMemoryRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyFor("flow/point", 7, refCfg())
	var out point
	if s.Get(k, &out) {
		t.Fatal("hit on an empty store")
	}
	s.Put(k, refPoint())
	if !s.Get(k, &out) {
		t.Fatal("miss after Put")
	}
	if out != refPoint() {
		t.Fatalf("round trip changed the value: %+v != %+v", out, refPoint())
	}
	if st := s.Stats(); st != (Stats{Hits: 1, Misses: 1, Stored: 1}) {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 stored", st)
	}
}

// TestDiskSurvivesRestart is the cross-invocation contract: a second
// process (modeled as a second Store over the same directory) hits what
// the first stored, bit-exactly.
func TestDiskSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyFor("flow/point", 7, refCfg())
	s1.Put(k, refPoint())

	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var out point
	if !s2.Get(k, &out) {
		t.Fatal("restarted store missed a disk entry")
	}
	if out != refPoint() {
		t.Fatalf("disk round trip changed the value: %+v != %+v", out, refPoint())
	}
}

// TestCorruptEntryRecovers: truncated and garbage entries must read as
// misses, and the recompute-and-Put path must heal them in place.
func TestCorruptEntryRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyFor("flow/point", 7, refCfg())
	s.Put(k, refPoint())
	path := s.path(k)

	for name, corrupt := range map[string]func() error{
		"truncated": func() error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, raw[:len(raw)/2], 0o644)
		},
		"garbage": func() error {
			return os.WriteFile(path, []byte("not a resultstore entry {]"), 0o644)
		},
		"bitflip": func() error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			raw[len(raw)-2] ^= 0x20
			return os.WriteFile(path, raw, 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			s.Put(k, refPoint()) // restore a good entry, then damage it
			if err := corrupt(); err != nil {
				t.Fatal(err)
			}
			fresh, err := Open(dir, false) // cold memory tier: must read disk
			if err != nil {
				t.Fatal(err)
			}
			var out point
			if fresh.Get(k, &out) {
				t.Fatal("corrupt entry served a hit")
			}
			fresh.Put(k, refPoint()) // the caller's recompute path
			healed, err := Open(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			if !healed.Get(k, &out) || out != refPoint() {
				t.Fatalf("rewrite did not heal the entry: hit=%v val=%+v", out != point{}, out)
			}
		})
	}
}

// TestSchemaVersionInvalidates: a bump must miss on every old entry —
// via both the key hash and the on-disk tree — without deleting them.
func TestSchemaVersionInvalidates(t *testing.T) {
	dir := t.TempDir()
	old, err := openVersion(dir, false, SchemaVersion)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyFor("flow/point", 7, refCfg())
	old.Put(k, refPoint())

	bumped, err := openVersion(dir, false, SchemaVersion+1)
	if err != nil {
		t.Fatal(err)
	}
	var out point
	if bumped.Get(k, &out) {
		t.Fatal("bumped store hit an old-version entry")
	}
	// The old tree must be untouched, so a not-yet-upgraded binary
	// sharing the directory keeps its cache.
	if _, err := os.Stat(old.path(k)); err != nil {
		t.Fatalf("old entry disturbed by the bumped store: %v", err)
	}
	// Even if an old entry were copied into the new tree byte-for-byte,
	// the version stamped in its header must reject it.
	stale := bumped.path(k)
	if err := os.MkdirAll(filepath.Dir(stale), 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(old.path(k))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if bumped.Get(k, &out) {
		t.Fatal("bumped store accepted an entry stamped with the old version")
	}
}

func TestReadonlyNeverWrites(t *testing.T) {
	dir := t.TempDir()
	rw, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyFor("flow/point", 7, refCfg())
	rw.Put(k, refPoint())

	ro, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	var out point
	if !ro.Get(k, &out) {
		t.Fatal("readonly store missed an existing entry")
	}
	k2 := KeyFor("flow/point", 8, refCfg())
	ro.Put(k2, refPoint())
	if ro.Get(k2, &out) {
		t.Fatal("readonly store served its own Put")
	}
	if st := ro.Stats(); st.Stored != 0 {
		t.Fatalf("readonly store counted %d stores", st.Stored)
	}
	// A readonly store over a directory that does not exist must open
	// (and miss) rather than create it.
	missing := filepath.Join(dir, "nope")
	ro2, err := Open(missing, true)
	if err != nil {
		t.Fatal(err)
	}
	if ro2.Get(k, &out) {
		t.Fatal("hit from a nonexistent directory")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("readonly open created the cache directory")
	}
}

// TestConcurrentAccess exercises racing readers and writers over shared
// and distinct keys; run under -race in the CI fast lane.
func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	const workers, keys = 8, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				cfg := refCfg()
				cfg.Load = float64(i % keys)
				k := KeyFor("flow/point", uint64(i%keys), cfg)
				var out point
				if s.Get(k, &out) {
					if out.Load != cfg.Load {
						t.Errorf("worker %d: key %s returned load %v, want %v", w, k, out.Load, cfg.Load)
						return
					}
				} else {
					s.Put(k, point{Load: cfg.Load})
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Hits == 0 || st.Stored == 0 {
		t.Fatalf("concurrent run produced no traffic: %+v", st)
	}
}

func TestDistinctKindsDistinctEntries(t *testing.T) {
	s, err := Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s.Put(KeyFor(fmt.Sprintf("kind%d", i), 1, refCfg()), i)
	}
	for i := 0; i < 4; i++ {
		var out int
		if !s.Get(KeyFor(fmt.Sprintf("kind%d", i), 1, refCfg()), &out) || out != i {
			t.Fatalf("kind%d entry lost or crossed: got %d", i, out)
		}
	}
}
