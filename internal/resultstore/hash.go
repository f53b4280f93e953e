package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"reflect"
	"sort"
)

// SchemaVersion names the semantics of everything behind a cache key: the
// simulator's output for a (kind, config, seed) triple AND the stored
// entry encoding. Bump it whenever a change alters any experiment's
// output for an unchanged config — timing-model fixes, RNG stream
// changes, render tweaks — or changes the entry format. The version is
// mixed into every key hash and names the on-disk tree (v1/, v2/, ...),
// so a bump invalidates the whole store cleanly: old entries are never
// read again, never deleted in place, and an old binary pointed at the
// same directory keeps hitting its own tree.
const SchemaVersion = 1

// Key addresses one memoized result: a kind label (which experiment
// function produced it) plus the canonical hash of (schema version, kind,
// seed, config). The zero Key is invalid and means "don't cache".
type Key struct {
	kind string
	sum  [sha256.Size]byte
}

// Valid reports whether the key addresses anything (non-zero).
func (k Key) Valid() bool { return k.kind != "" }

// String renders the key as "kind/hex", the form used in the store's
// memory index and on-disk layout.
func (k Key) String() string { return k.kind + "/" + hex.EncodeToString(k.sum[:]) }

// KeyFor builds the content-addressed key of one experiment result:
// kind labels the producing function ("flow/point", "cell/netsweep"),
// seed is the experiment's RNG seed, and cfg is its full configuration.
// cfg is hashed canonically — structs by sorted exported field name, maps
// by sorted encoded entries, floats by IEEE-754 bits, every value behind
// an explicit type tag — so the hash never depends on map iteration
// order, struct memory layout/padding, or field declaration order. Two
// configs hash equal iff they carry the same values; channels, funcs and
// other unhashable kinds panic (a programming error in the caller, not
// a data condition). A struct field tagged `key:"omitempty"` is left
// out while it holds its zero value, so adding such a field to a config
// keeps every key minted before it existed.
//
// The config must capture EVERYTHING the result depends on besides the
// seed and SchemaVersion. Deliberately excluded by convention: shard and
// worker counts, which the simulator guarantees never change a result.
func KeyFor(kind string, seed uint64, cfg any) Key {
	return keyForV(SchemaVersion, kind, seed, cfg)
}

// keyForV is KeyFor with an explicit schema version, split out so the
// invalidation tests can prove a version bump changes every hash.
func keyForV(version int, kind string, seed uint64, cfg any) Key {
	h := sha256.New()
	io.WriteString(h, "anton3/resultstore\x00")
	writeUint64(h, uint64(version))
	io.WriteString(h, kind)
	h.Write([]byte{0})
	writeUint64(h, seed)
	hashValue(h, reflect.ValueOf(cfg))
	k := Key{kind: kind}
	h.Sum(k.sum[:0])
	return k
}

// Type tags keep the encoding prefix-free across kinds: without them,
// e.g. the string "AB" and the two-element byte slice {65,66} could
// collide.
const (
	tagNil = iota + 1
	tagFalse
	tagTrue
	tagInt
	tagUint
	tagFloat
	tagString
	tagSlice
	tagMap
	tagStruct
)

func writeUint64(w io.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

// hashValue canonically encodes v into h. hash.Hash writers never fail,
// so no error plumbing.
func hashValue(h hash.Hash, v reflect.Value) {
	if !v.IsValid() {
		h.Write([]byte{tagNil})
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			h.Write([]byte{tagTrue})
		} else {
			h.Write([]byte{tagFalse})
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.Write([]byte{tagInt})
		writeUint64(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		h.Write([]byte{tagUint})
		writeUint64(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		// IEEE bits of the float64 value: exact, and float32 configs
		// hash equal to their exact float64 widening.
		h.Write([]byte{tagFloat})
		writeUint64(h, math.Float64bits(v.Float()))
	case reflect.String:
		h.Write([]byte{tagString})
		writeUint64(h, uint64(v.Len()))
		io.WriteString(h, v.String())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			// nil and empty slices hash equal: both mean "no elements".
			h.Write([]byte{tagSlice})
			writeUint64(h, 0)
			return
		}
		h.Write([]byte{tagSlice})
		writeUint64(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Map:
		// Entries are encoded standalone and sorted bytewise, so the
		// hash is independent of iteration (= insertion + randomization)
		// order.
		h.Write([]byte{tagMap})
		writeUint64(h, uint64(v.Len()))
		entries := make([][]byte, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			eh := sha256.New()
			hashValue(eh, iter.Key())
			hashValue(eh, iter.Value())
			entries = append(entries, eh.Sum(nil))
		}
		sort.Slice(entries, func(a, b int) bool {
			for i := range entries[a] {
				if entries[a][i] != entries[b][i] {
					return entries[a][i] < entries[b][i]
				}
			}
			return false
		})
		for _, e := range entries {
			h.Write(e)
		}
	case reflect.Struct:
		// Exported fields by sorted name: declaration order, padding and
		// unexported scratch fields never leak into the hash, and neither
		// does a zero field tagged omitempty.
		t := v.Type()
		type field struct {
			name string
			idx  int
		}
		fields := make([]field, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.IsExported() && !(f.Tag.Get("key") == "omitempty" && v.Field(i).IsZero()) {
				fields = append(fields, field{f.Name, i})
			}
		}
		sort.Slice(fields, func(a, b int) bool { return fields[a].name < fields[b].name })
		h.Write([]byte{tagStruct})
		writeUint64(h, uint64(len(fields)))
		for _, f := range fields {
			h.Write([]byte{tagString})
			writeUint64(h, uint64(len(f.name)))
			io.WriteString(h, f.name)
			hashValue(h, v.Field(f.idx))
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			h.Write([]byte{tagNil})
			return
		}
		hashValue(h, v.Elem())
	default:
		panic(fmt.Sprintf("resultstore: cannot hash %s in a cache key config", v.Kind()))
	}
}
