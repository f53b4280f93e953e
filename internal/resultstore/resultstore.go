// Package resultstore is the content-addressed result cache behind the
// sweep experiments: every experiment in this repository is a pure
// function of (configuration, seed), so its result can be stored once
// and replayed forever. A Store memoizes JSON-serializable results under
// canonical Keys (see KeyFor) in two tiers — an in-process map in front of
// an on-disk index shared across invocations — and turns repeated
// sweep work (knee-search probes re-visiting a load rung, a re-run of an
// identical grid) into cache hits.
//
// The headline guarantee is correctness, not speed: a cached result is
// byte-for-byte the value the computation produced (strings exactly;
// float64 fields bit-exactly, since encoding/json emits the shortest
// round-tripping decimal), keys capture the full config and seed, and
// SchemaVersion versions both the hash and the disk layout so stale
// entries can never serve a changed simulator. A corrupt or truncated
// disk entry is indistinguishable from a miss: the caller recomputes and
// the rewrite heals the entry.
//
// Concurrency: a Store is safe for concurrent readers and writers.
// Distinct processes may share one cache directory — entries are written
// to a temp file and renamed into place, and identical keys always carry
// identical payloads, so racing writers are idempotent.
package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Stats counts a store's traffic since it was opened. Misses count Get
// calls that found nothing (including corrupt disk entries) — under a
// cache-wired sweep, the number of results actually computed.
type Stats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Stored int64 `json:"stored"`
}

// Store is a two-tier content-addressed result cache. The zero value is
// not usable; Open constructs one.
type Store struct {
	dir      string // versioned root ("<cachedir>/v1")
	readonly bool
	version  int

	mu  sync.RWMutex
	mem map[string][]byte // Key.String() -> stored payload (JSON)

	hits, misses, stored atomic.Int64
}

// Open returns a store backed by dir (created if missing) plus an
// in-process memory tier. Entries live under dir/v<SchemaVersion>/, so a
// schema bump starts from an empty tree without touching old entries.
// readonly stores consult both tiers but never write anything — not even
// the memory tier, so Stats.Stored stays 0 and repeated Gets of an
// uncached key stay misses.
func Open(dir string, readonly bool) (*Store, error) {
	return openVersion(dir, readonly, SchemaVersion)
}

// openVersion is Open with an explicit schema version, split out so the
// invalidation tests can prove a bump misses cleanly.
func openVersion(dir string, readonly bool, version int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty cache directory")
	}
	root := filepath.Join(dir, fmt.Sprintf("v%d", version))
	if !readonly {
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
	}
	return &Store{dir: root, readonly: readonly, version: version, mem: make(map[string][]byte)}, nil
}

// Stats snapshots the store's traffic counters.
func (s *Store) Stats() Stats {
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Stored: s.stored.Load()}
}

// Get looks k up in the memory tier, then on disk, and decodes the
// stored payload into out (a pointer, as for json.Unmarshal). It reports
// whether a valid entry was found; any disk-entry damage — truncation,
// garbage, a checksum mismatch, undecodable JSON — counts as a miss, so
// the caller's recompute-and-Put path heals the entry.
func (s *Store) Get(k Key, out any) bool {
	if !k.Valid() {
		return false
	}
	id := k.String()
	s.mu.RLock()
	payload, ok := s.mem[id]
	s.mu.RUnlock()
	if !ok {
		payload, ok = s.readDisk(k)
		if ok && !s.readonly {
			s.mu.Lock()
			s.mem[id] = payload
			s.mu.Unlock()
		}
	}
	if ok {
		if err := json.Unmarshal(payload, out); err == nil {
			s.hits.Add(1)
			return true
		}
	}
	s.misses.Add(1)
	return false
}

// Put stores v under k in both tiers. Best-effort by design: marshal or
// disk errors drop the entry silently (the result is still returned to
// the caller; only future hits are lost), and readonly stores ignore Put
// entirely.
func (s *Store) Put(k Key, v any) {
	if !k.Valid() || s.readonly {
		return
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return
	}
	id := k.String()
	s.mu.Lock()
	s.mem[id] = payload
	s.mu.Unlock()
	s.stored.Add(1)
	s.writeDisk(k, payload)
}

// entryHeader begins every disk entry: a format marker, the entry's
// schema version, and the hex SHA-256 of the JSON payload that follows
// the newline. The checksum turns any partial write or bit damage into a
// detectable miss instead of a wrong result.
const entryMagic = "anton3-resultstore"

// path shards entries by the first hash byte under a per-kind directory:
// <root>/<kind>/<hex[:2]>/<hex>.json.
func (s *Store) path(k Key) string {
	h := hex.EncodeToString(k.sum[:])
	return filepath.Join(s.dir, filepath.FromSlash(k.kind), h[:2], h+".json")
}

func (s *Store) readDisk(k Key) ([]byte, bool) {
	raw, err := os.ReadFile(s.path(k))
	if err != nil {
		return nil, false
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	payload := raw[nl+1:]
	if string(raw[:nl]) != s.header(payload) {
		return nil, false
	}
	return payload, true
}

// header is the first line of the disk entry holding payload. readDisk
// accepts exactly the line writeDisk writes, byte for byte.
func (s *Store) header(payload []byte) string {
	return fmt.Sprintf("%s v%d %s", entryMagic, s.version, payloadSum(payload))
}

func (s *Store) writeDisk(k Key, payload []byte) {
	path := s.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	var buf bytes.Buffer
	buf.WriteString(s.header(payload))
	buf.WriteByte('\n')
	buf.Write(payload)
	// Temp file + rename: concurrent readers see the old entry or the
	// complete new one, never a torn write.
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(buf.Bytes())
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}

func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}
