package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

type payload struct {
	Cycle  int64
	Name   string
	Floats []float64
	Nested map[string][]int64
}

func samplePayload() payload {
	return payload{
		Cycle:  123_456,
		Name:   "sample",
		Floats: []float64{1.5, -2.25, 0},
		Nested: map[string][]int64{"a": {1, 2, 3}, "b": nil},
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	want := samplePayload()
	if err := Save(path, want.Cycle, &want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var got payload
	info, err := Load(path, &got)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if info.Version != Version || info.Cycle != want.Cycle {
		t.Errorf("info = %+v, want version %d cycle %d", info, Version, want.Cycle)
	}
	if got.Name != want.Name || len(got.Floats) != len(want.Floats) || got.Nested["a"][2] != 3 {
		t.Errorf("payload round trip mismatch: %+v", got)
	}
	// A leftover temp file would mean the atomic-rename path leaks staging
	// files on success.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after Save, want 1", len(entries))
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	want := samplePayload()
	if err := Encode(&buf, want.Cycle, &want); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	var p payload
	if _, err := Decode(nil, &p); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty input: got %v, want ErrCorrupt", err)
	}
	if _, err := Decode(good[:len(good)-1], &p); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated payload: got %v, want ErrCorrupt", err)
	}
	if _, err := Decode(good[:headerLen-1], &p); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated header: got %v, want ErrCorrupt", err)
	}

	for _, off := range []int{0, 9, 15, 21, 29, headerLen, len(good) - 1} {
		mut := append([]byte(nil), good...)
		mut[off] ^= 0x40
		_, err := Decode(mut, &p)
		if err == nil {
			t.Errorf("bit flip at offset %d: decoded without error", off)
		}
	}

	// Wrong version specifically.
	mut := append([]byte(nil), good...)
	mut[11] ^= 0xFF
	if _, err := Decode(mut, &p); !errors.Is(err, ErrVersion) {
		t.Errorf("wrong version: got %v, want ErrVersion", err)
	}
	// The previous format version, with a CRC that matches it: Load
	// refuses the file instead of decoding it into this version's state.
	mut = append([]byte(nil), good...)
	binary.BigEndian.PutUint32(mut[8:], Version-1)
	crc := crc32.NewIEEE()
	crc.Write(mut[:headerLen-4])
	crc.Write(mut[headerLen:])
	binary.BigEndian.PutUint32(mut[headerLen-4:], crc.Sum32())
	path := filepath.Join(t.TempDir(), FileName(want.Cycle))
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, &p); !errors.Is(err, ErrVersion) {
		t.Errorf("version %d file: got %v, want ErrVersion", Version-1, err)
	}
	// Wrong magic specifically.
	mut = append([]byte(nil), good...)
	mut[0] = 'X'
	if _, err := Decode(mut, &p); !errors.Is(err, ErrNotCheckpoint) {
		t.Errorf("wrong magic: got %v, want ErrNotCheckpoint", err)
	}
}

func TestRotationAndLoadLatest(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []int64{100, 200, 300, 400} {
		p := payload{Cycle: c}
		if err := SaveRotating(dir, c, &p, 2); err != nil {
			t.Fatalf("SaveRotating(%d): %v", c, err)
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil || len(names) != 2 {
		t.Fatalf("have %d checkpoints (%v), want 2", len(names), err)
	}
	var p payload
	info, err := LoadLatest(dir, &p)
	if err != nil || info.Cycle != 400 || p.Cycle != 400 {
		t.Fatalf("LoadLatest = %+v, %v; payload cycle %d", info, err, p.Cycle)
	}

	// Corrupt the newest: LoadLatest must fall back to the older one.
	newest := filepath.Join(dir, FileName(400))
	b, _ := os.ReadFile(newest)
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err = LoadLatest(dir, &p)
	if err != nil || info.Cycle != 300 {
		t.Fatalf("LoadLatest after corruption = %+v, %v; want cycle 300", info, err)
	}

	// No valid checkpoints at all.
	if _, err := LoadLatest(t.TempDir(), &p); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("empty dir: got %v, want fs.ErrNotExist", err)
	}
}
