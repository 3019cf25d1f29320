// Package checkpoint serializes complete simulation snapshots to disk with
// enough armour that a crash can never leave a state file that restores
// silently wrong: every file is written atomically (temp file + rename in
// the same directory), carries a magic number and format version, and
// guards the payload with a CRC checked *before* decoding. A truncated,
// bit-flipped, or foreign file yields an error, never a panic and never a
// half-restored simulation.
//
// The payload is gob-encoded caller state (typically *core.State or
// *network.State); the fixed header additionally records the snapshot
// cycle so a supervisor can pick the newest checkpoint without decoding
// megabytes of wheel state.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

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
// without error, leaving every source silent.
const Version uint32 = 6

// headerLen is the fixed prefix: magic(8) + version(4) + cycle(8) +
// payload length(8) + payload CRC(4).
const headerLen = 8 + 4 + 8 + 8 + 4

var (
	// ErrNotCheckpoint marks a file without the checkpoint magic.
	ErrNotCheckpoint = errors.New("checkpoint: not a checkpoint file")
	// ErrVersion marks a checkpoint from a different format version.
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

// Encode writes a checkpoint for state (snapshotted at the given cycle)
// to w.
func Encode(w io.Writer, cycle int64, state any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(state); err != nil {
		return fmt.Errorf("checkpoint: encoding state: %w", err)
	}
	hdr := make([]byte, headerLen)
	copy(hdr, Magic)
	binary.BigEndian.PutUint32(hdr[8:], Version)
	binary.BigEndian.PutUint64(hdr[12:], uint64(cycle))
	binary.BigEndian.PutUint64(hdr[20:], uint64(payload.Len()))
	// The CRC covers the header fields before it plus the payload, so a bit
	// flip anywhere in the file (including the snapshot cycle) is caught.
	crc := crc32.NewIEEE()
	crc.Write(hdr[:headerLen-4])
	crc.Write(payload.Bytes())
	binary.BigEndian.PutUint32(hdr[28:], crc.Sum32())
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// Decode parses a checkpoint from b into state (a pointer to the same
// type that was encoded). The payload CRC is verified before any decoding
// happens, so state is untouched unless the bytes are intact.
func Decode(b []byte, state any) (Info, error) {
	if len(b) < headerLen {
		return Info{}, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, len(b), headerLen)
	}
	if string(b[:8]) != Magic {
		return Info{}, ErrNotCheckpoint
	}
	info := Info{
		Version: binary.BigEndian.Uint32(b[8:]),
		Cycle:   int64(binary.BigEndian.Uint64(b[12:])),
	}
	if info.Version != Version {
		return Info{}, fmt.Errorf("%w: file is v%d, reader is v%d", ErrVersion, info.Version, Version)
	}
	plen := binary.BigEndian.Uint64(b[20:])
	want := binary.BigEndian.Uint32(b[28:])
	payload := b[headerLen:]
	if uint64(len(payload)) != plen {
		return Info{}, fmt.Errorf("%w: header says %d payload bytes, file has %d", ErrCorrupt, plen, len(payload))
	}
	crc := crc32.NewIEEE()
	crc.Write(b[:headerLen-4])
	crc.Write(payload)
	if got := crc.Sum32(); got != want {
		return Info{}, fmt.Errorf("%w: CRC %08x, header says %08x", ErrCorrupt, got, want)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(state); err != nil {
		return Info{}, fmt.Errorf("%w: decoding payload: %v", ErrCorrupt, err)
	}
	return info, nil
}

// Save atomically writes a checkpoint file: the bytes are staged in a
// temporary file in the target directory and renamed into place, so a
// crash mid-write leaves either the old checkpoint or the new one, never
// a torn file.
func Save(path string, cycle int64, state any) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := Encode(tmp, cycle, state); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads and verifies a checkpoint file, decoding its payload into
// state.
func Load(path string, state any) (Info, error) {
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
func SaveRotating(dir string, cycle int64, state any, keep int) error {
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
// cleanly, skipping (but not deleting) corrupt ones. It returns fs.ErrNotExist
// when the directory holds no valid checkpoint.
func LoadLatest(dir string, state any) (Info, error) {
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
