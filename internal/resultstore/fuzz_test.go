package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzGetEntry writes arbitrary bytes as the disk entry of one key and
// reads it back through a fresh store. Get must never panic, and it may
// hit only on an entry that is exactly the header Put writes — the magic,
// this store's schema version and the SHA-256 of the rest — followed by a
// payload that decodes, in which case it returns that payload's value.
// The corpus starts from a valid entry, a truncated one, one with a
// flipped checksum digit, one stamped with the next schema version and one
// whose version is written with a leading zero (a header Put never writes).
func FuzzGetEntry(f *testing.F) {
	k := KeyFor("flow/point", 7, refCfg())
	s, err := Open(f.TempDir(), false)
	if err != nil {
		f.Fatal(err)
	}
	s.Put(k, refPoint())
	valid, err := os.ReadFile(s.path(k))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	flipped := bytes.Clone(valid)
	flipped[bytes.IndexByte(flipped, '\n')-1] ^= 1
	f.Add(flipped)
	f.Add(bytes.Replace(valid, []byte(fmt.Sprintf(" v%d ", SchemaVersion)), []byte(fmt.Sprintf(" v%d ", SchemaVersion+1)), 1))
	f.Add(bytes.Replace(valid, []byte(fmt.Sprintf(" v%d ", SchemaVersion)), []byte(fmt.Sprintf(" v0%d ", SchemaVersion)), 1))

	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Open(t.TempDir(), false)
		if err != nil {
			t.Fatal(err)
		}
		path := s.path(k)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var got point
		if !s.Get(k, &got) {
			return
		}
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			t.Fatalf("hit on an entry with no header line: %q", raw)
		}
		payload := raw[nl+1:]
		if want := fmt.Sprintf("%s v%d %s", entryMagic, SchemaVersion, payloadSum(payload)); string(raw[:nl]) != want {
			t.Fatalf("hit on header %q, want %q", raw[:nl], want)
		}
		var want point
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("hit on a payload that does not decode: %v", err)
		}
		if got != want {
			t.Fatalf("hit returned %+v, the payload holds %+v", got, want)
		}
	})
}
