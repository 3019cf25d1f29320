package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint/wire"
)

type payload struct {
	Cycle  int64
	Name   string
	Floats []float64
}

func (p *payload) Wire(c *wire.Codec) {
	wire.Int(c, &p.Cycle)
	wire.String(c, &p.Name)
	wire.Slice(c, &p.Floats, wire.Float)
}

func samplePayload() payload {
	return payload{
		Cycle:  123_456,
		Name:   "sample",
		Floats: []float64{1.5, -2.25, 0},
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
	if !reflect.DeepEqual(got, want) {
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

type abc struct{ A, B, C int }

func (s *abc) Wire(c *wire.Codec) {
	wire.Int(c, &s.A)
	wire.Int(c, &s.B)
	wire.Int(c, &s.C)
}

// TestLoadLatestFallbackIsExact: when the newest file passes its CRC and
// schema checks but its payload fails after setting fields, LoadLatest
// falls back to the older file and leaves exactly that file's state,
// zero fields included, with nothing of the failed decode.
func TestLoadLatestFallbackIsExact(t *testing.T) {
	dir := t.TempDir()
	older := abc{B: 5}
	if err := Save(filepath.Join(dir, FileName(100)), 100, &older); err != nil {
		t.Fatal(err)
	}
	// The newest payload encodes {7 9 11} and then a stray byte; its
	// header length and CRC cover the stray byte, so only the decode
	// fails, after every field is set.
	b := append(encode(200, &abc{A: 7, B: 9, C: 11}), 0)
	binary.BigEndian.PutUint64(b[28:], uint64(len(b)-headerLen))
	binary.BigEndian.PutUint32(b[headerLen-4:], fileCRC(b))
	if err := os.WriteFile(filepath.Join(dir, FileName(200)), b, 0o600); err != nil {
		t.Fatal(err)
	}
	var got abc
	if _, err := Decode(b, &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("fixture: newest file decodes with %v, want ErrCorrupt", err)
	}
	info, err := LoadLatest(dir, &got)
	if err != nil || info.Cycle != 100 {
		t.Fatalf("LoadLatest = %+v, %v; want cycle 100", info, err)
	}
	if got != older {
		t.Errorf("LoadLatest left %+v, want the older file's %+v", got, older)
	}
}

// TestDecodeRejectsSchemaChange: a payload decoded into a type whose tree
// differs from the encoded one — a field added or renamed — is refused
// with ErrVersion instead of decoding with fields silently zeroed, while
// the same tree under another type name still decodes.
func TestDecodeRejectsSchemaChange(t *testing.T) {
	var buf bytes.Buffer
	want := samplePayload()
	if err := Encode(&buf, want.Cycle, &want); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(buf.Bytes(), &payloadAdded{}); !errors.Is(err, ErrVersion) {
		t.Errorf("field added: got %v, want ErrVersion", err)
	}
	if _, err := Decode(buf.Bytes(), &payloadRenamed{}); !errors.Is(err, ErrVersion) {
		t.Errorf("field renamed: got %v, want ErrVersion", err)
	}
	var got payloadSame
	if _, err := Decode(buf.Bytes(), &got); err != nil || got.Name != want.Name {
		t.Errorf("same tree: got %+v, %v", got, err)
	}
}

// payloadAdded is payload with a field appended.
type payloadAdded struct {
	Cycle  int64
	Name   string
	Floats []float64
	Extra  int
}

func (p *payloadAdded) Wire(c *wire.Codec) {
	wire.Int(c, &p.Cycle)
	wire.String(c, &p.Name)
	wire.Slice(c, &p.Floats, wire.Float)
	wire.Int(c, &p.Extra)
}

// payloadRenamed is payload with Name renamed.
type payloadRenamed struct {
	Cycle  int64
	Label  string
	Floats []float64
}

func (p *payloadRenamed) Wire(c *wire.Codec) {
	wire.Int(c, &p.Cycle)
	wire.String(c, &p.Label)
	wire.Slice(c, &p.Floats, wire.Float)
}

// payloadSame is payload's tree under another type name.
type payloadSame payload

func (p *payloadSame) Wire(c *wire.Codec) { (*payload)(p).Wire(c) }
