package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzCheckpointLoad hammers the decode path with arbitrary bytes: any
// input — truncated, bit-flipped, wrong version, wrong magic, hostile
// payload — must produce an error or a verified payload, and must never
// panic. The CRC turns away nearly every mutation before the payload
// decoder sees it; FuzzStateDecode in internal/core fuzzes that decoder
// directly. A panic here would take down a run supervisor that encountered a
// torn checkpoint, which is exactly the moment it must stay alive.
func FuzzCheckpointLoad(f *testing.F) {
	var buf bytes.Buffer
	p := samplePayload()
	if err := Encode(&buf, p.Cycle, &p); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()

	f.Add(append([]byte(nil), good...))
	f.Add(append([]byte(nil), good[:headerLen]...))
	f.Add(append([]byte(nil), good[:len(good)/2]...))
	wrongVer := append([]byte(nil), good...)
	wrongVer[11] ^= 0xFF
	f.Add(wrongVer)
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 0x01
	f.Add(flipped)
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		var out payload
		info, err := Decode(b, &out)
		if err == nil && info.Version != Version {
			t.Fatalf("decode accepted version %d", info.Version)
		}
	})
}
