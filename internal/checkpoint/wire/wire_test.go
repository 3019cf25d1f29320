package wire

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

type sample struct {
	I8   int8
	U16  uint16
	B    bool
	S    string
	F    float64
	Xs   []int32
	Next *sample
}

func (s *sample) Wire(c *Codec) {
	Int(c, &s.I8)
	Uint(c, &s.U16)
	Bool(c, &s.B)
	String(c, &s.S)
	Float(c, &s.F)
	Slice(c, &s.Xs, Int)
	Ptr(c, &s.Next)
}

func encode(r Record) []byte {
	b := make([]byte, Size(r))
	if n := Put(b, r); n != len(b) {
		panic("Put and Size disagree")
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	a := sample{I8: -128, U16: math.MaxUint16, B: true, S: "wire", F: -0.1, Xs: []int32{math.MinInt32, 0, 7},
		Next: &sample{F: math.Inf(1)}}
	b := sample{S: "stale", Xs: []int32{1}, Next: &sample{I8: 9}}
	// Each is decoded into the other, so every field, the bool included,
	// is decoded over a value it differs from.
	for _, pair := range [][2]sample{{a, b}, {b, a}} {
		src, got := pair[0], pair[1]
		if err := Decode(encode(&src), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, src) {
			t.Errorf("decoded %+v, want %+v", got, src)
		}
	}
}

// TestDecodeRefuses: input that does not fit its fields, or that is cut
// short, is an error; a length prefix longer than the input can hold
// allocates nothing.
func TestDecodeRefuses(t *testing.T) {
	good := encode(&sample{S: "s", Xs: []int32{1, 2}})
	rows := []struct {
		name string
		b    []byte
		want string
	}{
		{"int8 overflow", append(binary.AppendVarint(nil, 200), good[1:]...), "does not fit"},
		{"uint16 overflow", append(append([]byte{0}, binary.AppendUvarint(nil, 1<<16)...), good[2:]...), "does not fit"},
		{"bool byte 2", append(append([]byte{0, 0}, 2), good[3:]...), "neither 0 nor 1"},
		{"trailing byte", append(append([]byte(nil), good...), 0), "follow the record"},
		{"string longer than input", append([]byte{0, 0, 0}, binary.AppendUvarint(nil, 1<<40)...), "string"},
		{"slice longer than input", append(append([]byte{0, 0, 0, 0}, 0), binary.AppendUvarint(nil, 1<<40)...), "slice"},
		{"varint past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "overflows"},
	}
	for _, row := range rows {
		var s sample
		if err := Decode(row.b, &s); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", row.name, err, row.want)
		}
	}
	for n := 0; n < len(good); n++ {
		var s sample
		if err := Decode(good[:n], &s); err == nil {
			t.Errorf("%d-byte prefix of a %d-byte record decoded", n, len(good))
		}
	}
}

// TestFloatEncoding: zero and small integers take a byte or a few, and
// every bit pattern, NaN payloads included, survives.
func TestFloatEncoding(t *testing.T) {
	for _, f := range []float64{0, 1, 3, 0.5, -2, 1e300, math.SmallestNonzeroFloat64, math.Float64frombits(0x7ff8_0000_dead_beef)} {
		src := sample{F: f}
		var got sample
		if err := Decode(encode(&src), &got); err != nil || math.Float64bits(got.F) != math.Float64bits(f) {
			t.Errorf("%v: decoded %v, %v", f, got.F, err)
		}
	}
	if n := Size(&sample{F: 0}); n != 7 {
		t.Errorf("zero record is %d bytes, want 7 (one per field)", n)
	}
	if n := Size(&sample{F: 3}); n != 8 {
		t.Errorf("record with F = 3 is %d bytes, want 8", n)
	}
}
