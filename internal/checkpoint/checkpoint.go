// Package checkpoint serializes complete simulation snapshots to disk with
// enough armour that a crash can never leave a state file that restores
// silently wrong: every file is written atomically through
// internal/atomicio, carries a magic number and format version, and
// guards the payload with a CRC checked *before* decoding. A truncated,
// bit-flipped, or foreign file yields an error, never a panic and never a
// half-restored simulation.
//
// The payload is the caller's state record (typically *core.State or
// *network.State) in the positional binary layout of package wire: each
// record lists its fields in declaration order, and decoding assigns
// every one of them. The fixed header additionally records a digest of
// the payload's type tree, which fixes that layout, so a file written by
// a build whose state records had other fields is refused rather than
// decoded into them, and the snapshot cycle, so a supervisor can pick the
// newest checkpoint without decoding megabytes of wheel state.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"

	"repro/internal/atomicio"
	"repro/internal/checkpoint/wire"
)

// Record is a state record the codec can write and read: it lists its
// fields, in declaration order, to a wire.Codec.
type Record = wire.Record

// Magic identifies a checkpoint file.
const Magic = "OPTOCKPT"

// Version is the current format version. Load rejects any other version:
// checkpoints are process-lifetime artifacts, not archival data, so there
// is no cross-version migration. Version 2: controller state became the
// kind-tagged policy union and the snapshot may carry an oracle trace.
// Version 3: every policy kind's state is one flat record; gob would
// decode a version-2 union into a zeroed record without error, so the
// bump is what rejects it. Version 4: wheel entries carry registered
// handlers instead of kind/obj/param descriptors, the wheel records its
// handler-table size, and the network's duplicate watchdog-drop counter
// is gone. Version 5: wheel entry keys are 32-bit values in the network's
// compact (owner, src) layout instead of 64-bit (owner<<20 | src) ones.
// Version 6: each source's next packet is a NIC field whose arrival is a
// wheel entry, so the shards' injection lists and the unused routing
// stream are gone; gob would drop a version-5 file's pending injections
// without error, leaving every source silent. Version 7: the header
// carries the payload's schema digest after the version, and the live
// components keep their mutable fields in the state records themselves,
// which moved fields between records. Version 8: the payload is the
// positional wire layout instead of a gob stream.
const Version uint32 = 8

// headerLen is the fixed prefix: magic(8) + version(4) + schema digest(8)
// + cycle(8) + payload length(8) + payload CRC(4).
const headerLen = 8 + 4 + 8 + 8 + 8 + 4

var (
	// ErrNotCheckpoint marks a file without the checkpoint magic.
	ErrNotCheckpoint = errors.New("checkpoint: not a checkpoint file")
	// ErrVersion marks a checkpoint from a different format version, or
	// one whose payload type tree differs from the decode target's.
	ErrVersion = errors.New("checkpoint: unsupported format version")
	// ErrCorrupt marks a truncated or bit-flipped checkpoint (length or
	// CRC mismatch, or an undecodable payload).
	ErrCorrupt = errors.New("checkpoint: corrupt")
)

// Info is the cheaply readable identity of a checkpoint.
type Info struct {
	Version uint32
	Cycle   int64
}

// encode returns the checkpoint file for state (snapshotted at the given
// cycle): header and payload in one buffer, allocated once at the size a
// sizing pass over state gives.
func encode(cycle int64, state Record) []byte {
	b := make([]byte, headerLen+wire.Size(state))
	wire.Put(b[headerLen:], state)
	copy(b, Magic)
	binary.BigEndian.PutUint32(b[8:], Version)
	binary.BigEndian.PutUint64(b[12:], schemaDigest(reflect.TypeOf(state)))
	binary.BigEndian.PutUint64(b[20:], uint64(cycle))
	binary.BigEndian.PutUint64(b[28:], uint64(len(b)-headerLen))
	binary.BigEndian.PutUint32(b[headerLen-4:], fileCRC(b))
	return b
}

// fileCRC is the CRC a checkpoint file's header stores. It covers the
// header fields before it plus the payload, so a bit flip anywhere in the
// file (including the snapshot cycle) is caught.
func fileCRC(b []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(b[:headerLen-4]), crc32.IEEETable, b[headerLen:])
}

// Encode writes a checkpoint for state (snapshotted at the given cycle)
// to w.
func Encode(w io.Writer, cycle int64, state Record) error {
	_, err := w.Write(encode(cycle, state))
	return err
}

// Decode parses a checkpoint from b into state (a pointer to the same
// type that was encoded). The payload CRC and the schema digest are
// verified before any decoding happens, so state is untouched unless the
// bytes are intact and were encoded from the same type tree; a decode
// that then succeeds has assigned every field of state.
func Decode(b []byte, state Record) (Info, error) {
	if len(b) < headerLen {
		return Info{}, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(b), headerLen)
	}
	if string(b[:8]) != Magic {
		return Info{}, ErrNotCheckpoint
	}
	info := Info{
		Version: binary.BigEndian.Uint32(b[8:]),
		Cycle:   int64(binary.BigEndian.Uint64(b[20:])),
	}
	if info.Version != Version {
		return Info{}, fmt.Errorf("%w: file is v%d, reader is v%d", ErrVersion, info.Version, Version)
	}
	plen := binary.BigEndian.Uint64(b[28:])
	want := binary.BigEndian.Uint32(b[headerLen-4:])
	payload := b[headerLen:]
	if uint64(len(payload)) != plen {
		return Info{}, fmt.Errorf("%w: header says %d payload bytes, file has %d", ErrCorrupt, plen, len(payload))
	}
	if got := fileCRC(b); got != want {
		return Info{}, fmt.Errorf("%w: CRC %08x, header says %08x", ErrCorrupt, got, want)
	}
	// The payload names no fields, so one from another type tree could
	// decode without error into the wrong ones.
	if file, reader := binary.BigEndian.Uint64(b[12:]), schemaDigest(reflect.TypeOf(state)); file != reader {
		return Info{}, fmt.Errorf("%w: file schema %016x, reader schema %016x", ErrVersion, file, reader)
	}
	if err := wire.Decode(payload, state); err != nil {
		return Info{}, fmt.Errorf("%w: decoding payload: %v", ErrCorrupt, err)
	}
	return info, nil
}

// digests caches schemaDigest per type.
var digests sync.Map // reflect.Type -> uint64

// schemaDigest hashes the type tree of t: the name of every exported or
// embedded struct field, in declaration order, with its kind and,
// recursively, its pointer, element and field types; type names are not
// part of it. Where a record's Wire method follows the wire layout rules,
// its layout is a function of that tree, so equal digests mean equal
// layouts. Unexported fields are outside the tree, and core's codec test
// holds every Wire method under core.State to the rules and refuses an
// unexported field there.
func schemaDigest(t reflect.Type) uint64 {
	if d, ok := digests.Load(t); ok {
		return d.(uint64)
	}
	h := fnv.New64a()
	writeSchema(h, t, make(map[reflect.Type]bool))
	d := h.Sum64()
	digests.Store(t, d)
	return d
}

// writeSchema writes t's tree to w; open holds the structs being written,
// so a recursive type is written once.
func writeSchema(w io.Writer, t reflect.Type, open map[reflect.Type]bool) {
	fmt.Fprintf(w, "%s(", t.Kind())
	switch t.Kind() {
	case reflect.Struct:
		if open[t] {
			break
		}
		open[t] = true
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() || f.Anonymous {
				fmt.Fprintf(w, "%s:", f.Name)
				writeSchema(w, f.Type, open)
			}
		}
		delete(open, t)
	case reflect.Array:
		fmt.Fprintf(w, "%d:", t.Len())
		writeSchema(w, t.Elem(), open)
	case reflect.Pointer, reflect.Slice:
		writeSchema(w, t.Elem(), open)
	}
	io.WriteString(w, ")")
}

// Save atomically writes a checkpoint file through atomicio: a crash
// mid-write leaves either the old checkpoint or the new one, never a torn
// file.
func Save(path string, cycle int64, state Record) error {
	return atomicio.WriteFile(path, encode(cycle, state), 0o600)
}

// Load reads and verifies a checkpoint file, decoding its payload into
// state.
func Load(path string, state Record) (Info, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Info{}, err
	}
	info, err := Decode(b, state)
	if err != nil {
		return Info{}, fmt.Errorf("%s: %w", path, err)
	}
	return info, nil
}

// pattern is the cycle-stamped file name used by rotating auto-checkpoints.
const pattern = "ckpt-%016d.ckpt"

// FileName returns the rotating checkpoint file name for a cycle.
func FileName(cycle int64) string {
	return fmt.Sprintf(pattern, cycle)
}

// list returns the checkpoint files in dir, newest (highest cycle) first.
func list(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil {
		return nil, err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// SaveRotating writes a cycle-stamped checkpoint into dir and prunes all
// but the newest keep files. Keeping more than one means a checkpoint that
// turns out to be unreadable (e.g. the disk lied about durability) still
// leaves an older valid one for LoadLatest to fall back to.
func SaveRotating(dir string, cycle int64, state Record, keep int) error {
	if keep < 1 {
		keep = 1
	}
	if err := Save(filepath.Join(dir, FileName(cycle)), cycle, state); err != nil {
		return err
	}
	names, err := list(dir)
	if err != nil {
		return err
	}
	for _, old := range names[min(keep, len(names)):] {
		os.Remove(old)
	}
	return nil
}

// LoadLatest finds the newest checkpoint in dir that verifies and decodes
// cleanly, skipping (but not deleting) corrupt ones. A payload that fails
// part-way leaves state partly overwritten, but the decode that succeeds
// assigns every field, so state ends exactly as the file it returns
// holds. It returns fs.ErrNotExist when the directory holds no valid
// checkpoint.
func LoadLatest(dir string, state Record) (Info, error) {
	names, err := list(dir)
	if err != nil {
		return Info{}, err
	}
	var firstErr error
	for _, name := range names {
		info, err := Load(name, state)
		if err == nil {
			return info, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return Info{}, fmt.Errorf("%w (newest unreadable: %v)", fs.ErrNotExist, firstErr)
	}
	return Info{}, fs.ErrNotExist
}
