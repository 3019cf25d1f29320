package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/checkpoint/wire"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// encode returns r's wire encoding.
func encode(r wire.Record) []byte {
	b := make([]byte, wire.Size(r))
	wire.Put(b, r)
	return b
}

// filler sets every exported field of a record tree to a distinct
// non-zero value: slices get length n and pointers a fresh element. A
// bool has no values to spare, so bool leaf j, counted from 1, is set to
// bit `bit` of j, or to true for a negative bit: over the fills for every
// bit of the bool count, each bool leaf is set at least once and takes a
// sequence of its own.
type filler struct {
	t     *testing.T
	next  int64
	n     int
	bit   int
	bools int
	types map[reflect.Type]bool // struct types met
}

func (f *filler) fill(v reflect.Value, path string) {
	f.next++
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := f.next
		if v.OverflowInt(x) {
			x = x%100 + 1
		}
		v.SetInt(x)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := uint64(f.next)
		if v.OverflowUint(x) {
			x = x%200 + 1
		}
		v.SetUint(x)
	case reflect.Float64:
		v.SetFloat(float64(f.next) + 0.25)
	case reflect.Bool:
		f.bools++
		v.SetBool(f.bit < 0 || f.bools>>f.bit&1 == 1)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.next))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), f.n, f.n))
		for i := 0; i < f.n; i++ {
			f.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem(), path)
	case reflect.Struct:
		if f.types == nil {
			f.types = make(map[reflect.Type]bool)
		}
		f.types[v.Type()] = true
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			if !sf.IsExported() {
				f.t.Fatalf("%s.%s is unexported: a checkpoint record carries exported fields only", path, sf.Name)
			}
			f.fill(v.Field(i), path+"."+sf.Name)
		}
	default:
		f.t.Fatalf("%s is a %s, which the checkpoint codec has no rule for", path, v.Kind())
	}
}

// field is where one leaf field's encoding starts in the reference bytes.
type field struct {
	off  int
	path string
}

// refEncode is the reference encoder: it appends v's encoding by the
// wire package's per-kind rules, walking fields in declaration order, and
// notes where each leaf starts.
func refEncode(t *testing.T, b []byte, v reflect.Value, path string, at *[]field) []byte {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*at = append(*at, field{len(b), path})
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*at = append(*at, field{len(b), path})
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float64:
		*at = append(*at, field{len(b), path})
		return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(v.Float())))
	case reflect.Bool:
		*at = append(*at, field{len(b), path})
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.String:
		*at = append(*at, field{len(b), path})
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Slice:
		*at = append(*at, field{len(b), path})
		b = binary.AppendUvarint(b, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = refEncode(t, b, v.Index(i), fmt.Sprintf("%s[%d]", path, i), at)
		}
		return b
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = refEncode(t, b, v.Index(i), fmt.Sprintf("%s[%d]", path, i), at)
		}
		return b
	case reflect.Pointer:
		*at = append(*at, field{len(b), path})
		if v.IsNil() {
			return append(b, 0)
		}
		return refEncode(t, append(b, 1), v.Elem(), path, at)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = refEncode(t, b, v.Field(i), path+"."+v.Type().Field(i).Name, at)
		}
		return b
	}
	t.Fatalf("%s is a %s, which the checkpoint codec has no rule for", path, v.Kind())
	return nil
}

// TestCodecComplete holds every hand-written Wire method under State to
// the codec's layout rules, which are a function of the type tree alone
// (the tree the checkpoint header's schema digest hashes). For each bit of
// the bool leaf count it fills every exported field of the tree with a
// distinct non-zero value, bools by that bit, and requires (a) the
// hand-encoded bytes to equal the reflect reference encoder's, so a field
// left out or two fields listed out of declaration order fail here, two
// bools included, and (b) a decode into a zero State and one into a State
// filled with other values, longer slices and every bool set to both
// equal the source, so the decoder assigns every field and keeps nothing
// of its target.
func TestCodecComplete(t *testing.T) {
	count := &filler{t: t, n: 2}
	var probe State
	count.fill(reflect.ValueOf(&probe).Elem(), "State")
	fields := 0
	for typ := range count.types {
		fields += typ.NumField()
	}
	t.Logf("%d struct types with %d fields; %d bool leaves", len(count.types), fields, count.bools)
	for bit := range bits.Len(uint(count.bools)) {
		t.Run(fmt.Sprintf("bool-bit-%d", bit), func(t *testing.T) { checkCodec(t, bit) })
	}
}

// checkCodec runs TestCodecComplete's checks on the fill for one bool bit.
func checkCodec(t *testing.T, bit int) {
	var src State
	(&filler{t: t, n: 2, bit: bit}).fill(reflect.ValueOf(&src).Elem(), "State")
	got := encode(&src)
	var at []field
	want := refEncode(t, nil, reflect.ValueOf(&src).Elem(), "State", &at)
	if !bytes.Equal(got, want) {
		diff := 0
		for diff < min(len(got), len(want)) && got[diff] == want[diff] {
			diff++
		}
		where := "the start"
		for _, fl := range at {
			if fl.off <= diff {
				where = fl.path
			}
		}
		t.Fatalf("Wire methods encode %d bytes, the reference %d; first difference at byte %d, in %s", len(got), len(want), diff, where)
	}
	if n := wire.Size(&src); n != len(got) {
		t.Errorf("Size = %d, encoding has %d bytes", n, len(got))
	}

	var zero State
	if err := wire.Decode(got, &zero); err != nil {
		t.Fatalf("decode into a zero State: %v", err)
	}
	if !reflect.DeepEqual(zero, src) {
		t.Error("decode into a zero State differs from the source")
	}
	var dirty State
	(&filler{t: t, next: 1_000, n: 3, bit: -1}).fill(reflect.ValueOf(&dirty).Elem(), "State")
	if err := wire.Decode(got, &dirty); err != nil {
		t.Fatalf("decode into a filled State: %v", err)
	}
	if !reflect.DeepEqual(dirty, src) {
		t.Error("decode into a filled State differs from the source: the decoder left a field of its target")
	}
}

// statePayload is the checkpoint payload of a 4×4 system with every
// optional subsystem that carries state: sustained corruption, relock
// failures and a link failure, recovery, the rules policy with its trace
// recorder, and telemetry.
func statePayload(tb testing.TB) []byte {
	cfg := network.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 4, 4
	cfg.NodesPerRack = 2
	cfg.Recovery.Enabled = true
	cfg.Policy.Kind = policy.KindRules
	cfg.Policy.RecordTrace = true
	cfg.Fault = fault.Config{
		BERFloor:       2e-4,
		RelockFailProb: 0.3,
		LinkFailures:   []fault.LinkFailure{{Link: 3, At: 500, RepairAt: 5_000}},
	}
	cfg.Telemetry = telemetry.Config{Enabled: true, SampleEvery: 256, RingCap: 4}
	sys, err := NewSystem(cfg, traffic.NewUniform(cfg.Nodes(), 0.4, 5))
	if err != nil {
		tb.Fatal(err)
	}
	defer sys.Net.Close()
	sys.RunTo(1_500)
	st, err := sys.ExportState()
	if err != nil {
		tb.Fatal(err)
	}
	if st.Net.Fault == nil || st.Net.Telemetry == nil || st.Net.PolicyTrace == nil || len(st.Net.Packets) == 0 {
		tb.Fatal("fixture: state lacks faults, telemetry, a policy trace or live packets")
	}
	return encode(st)
}

// decodeAllocBound is the most a decode of n input bytes may allocate: a
// decoded slice needs its elements' minimum encodings in the input, and
// no element is more than 32 times the size of its minimum encoding,
// plus a fixed allowance for the codec and its error.
func decodeAllocBound(n int) uint64 { return 32*uint64(n) + 64<<10 }

// FuzzStateDecode feeds arbitrary bytes straight to State's payload
// decoder, past the checkpoint header's CRC: any input must produce an
// error or a state that re-encodes to a payload decoding to the same
// state, never a panic, and the decode may allocate no more than the
// input's length allows.
func FuzzStateDecode(f *testing.F) {
	good := statePayload(f)
	for _, n := range []int{len(good), len(good) - 1, len(good) / 2, len(good) / 3, 1, 0} {
		f.Add(append([]byte(nil), good[:n]...))
	}
	// A huge length prefix: Net present, its clock and counters zero up to
	// the latency histogram, whose bucket slice claims 2^62 elements.
	huge := make([]byte, 13)
	huge[0] = 1
	f.Add(binary.AppendUvarint(huge, 1<<62))

	f.Fuzz(func(t *testing.T, b []byte) {
		var st State
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := wire.Decode(b, &st)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > decodeAllocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d bytes, more than the bound %d", len(b), alloc, decodeAllocBound(len(b)))
		}
		if err != nil {
			return
		}
		again := encode(&st)
		var st2 State
		if err := wire.Decode(again, &st2); err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if !bytes.Equal(encode(&st2), again) {
			t.Fatal("re-encoded state decodes to another state")
		}
	})
}
