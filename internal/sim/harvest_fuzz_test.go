package sim

import (
	"slices"
	"testing"
)

// harvestOrder is the reference (Key, Seq) comparator: BeginCycle must
// return exactly what a comparison sort with it returns.
func harvestOrder(a, b Entry) int {
	if a.Key != b.Key {
		if a.Key < b.Key {
			return -1
		}
		return 1
	}
	if a.Seq < b.Seq {
		return -1
	}
	return 1
}

// fuzzTarget decodes a schedule target relative to the wheel clock: from
// a few cycles in the past through the near buckets, or far beyond every
// horizon the fuzz target builds.
func fuzzTarget(now Cycle, b byte) Cycle {
	if b < 0xe0 {
		return now + Cycle(b&31) - 4
	}
	return now + Cycle(b)*4
}

// FuzzWheelHarvestOrder decodes the fuzz bytes into a script of Schedule
// calls, bursts of at least smallRun schedules into one cycle (so both the
// insertion and the radix path run), harvests, legal SkipTo calls and one
// ExportState → RestoreState into a fresh wheel of another size that
// registered the same handlers, then drains the wheel. Keys start from key
// 0, and each new key is a used one with one of its four bytes replaced, so
// a cycle's keys often differ
// in a single byte — the case where a radix pass that is skipped or
// unstable shows. A model of the pending entries predicts every
// BeginCycle batch: the entries due that cycle, sorted by harvestOrder.
func FuzzWheelHarvestOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		2, 3, // 16 buckets, restored into 32
		0, 5, 0, 3, 9, // key 9<<24, 1 cycle ahead
		0, 5, 1, 1, 7, // key 9<<24 | 7<<8
		0, 5, 2, 0, 3, // key 9<<24 | 7<<8 | 3
		6, 5, 0, // key 0, same cycle
		6, 5, 2, // key 9<<24 | 7<<8 again
		0, 0xf0, 3, 2, 1, // far beyond the horizon
		6, 0xf0, 4, // same cycle and key, scheduled later
		10, 5, 8, 0, // a burst of 40 one cycle ahead, over every used key
		10, 0xf0, 0, 3, // a burst of 32 into the far cycle
		11, 11, // harvest two cycles
		15,       // export and restore
		14, 0xff, // skip as far as legal
		0, 0, 4, 3, 8, // 4 cycles in the past: deferred to the next
		11,
	})
	// Before the first harvest: a fresh wheel's clock is -1, so a schedule
	// into the past lands at cycle 0, the first cycle harvested.
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 11})
	for seed := uint64(1); seed <= 3; seed++ {
		r := NewRNG(seed)
		script := make([]byte, 1024)
		for i := range script {
			script[i] = byte(r.Uint64())
		}
		f.Add(script)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// Entries cycle through three handlers, so a harvest or a restore
		// that swaps handlers between entries shows in the model check.
		const handlers = 3
		newWheel := func(size int) *Wheel {
			w := NewWheel(size)
			for range handlers {
				w.Register(func(Cycle) {})
			}
			return w
		}
		w := newWheel(4 << (data[0] % 5))
		restoreSize := 4 << (data[1] % 5)
		data = data[2:]
		if len(data) > 4096 {
			data = data[:4096]
		}

		var (
			due      = map[Cycle][]Entry{} // the model: pending entries by cycle
			keys     = []uint32{0}
			now      = Cycle(-1) // a fresh wheel's clock
			seq      uint64
			restored bool
		)
		schedule := func(at Cycle, key uint32) {
			seq++
			h := Handler(1 + seq%handlers)
			w.Schedule(at, key, h)
			at = max(at, now+1)
			due[at] = append(due[at], Entry{Key: key, Seq: seq, H: h})
		}
		harvest := func() {
			now++
			want := due[now]
			delete(due, now)
			slices.SortFunc(want, harvestOrder)
			got := w.BeginCycle(now)
			if len(got) != len(want) {
				t.Fatalf("cycle %d harvested %d entries, want %d", now, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cycle %d entry %d = key %#x seq %d handler %d, want key %#x seq %d handler %d",
						now, i, got[i].Key, got[i].Seq, got[i].H, want[i].Key, want[i].Seq, want[i].H)
				}
			}
		}

	script:
		for len(data) > 0 {
			op := data[0] % 16
			switch {
			case op <= 4: // schedule under a used key with one byte replaced
				if len(data) < 5 {
					break script
				}
				shift := 8 * (uint(data[3]) % 4)
				key := keys[int(data[2])%len(keys)]&^(0xff<<shift) | uint32(data[4])<<shift
				keys = append(keys, key)
				schedule(fuzzTarget(now, data[1]), key)
				data = data[5:]
			case op <= 9: // schedule under a key already used
				if len(data) < 3 {
					break script
				}
				schedule(fuzzTarget(now, data[1]), keys[int(data[2])%len(keys)])
				data = data[3:]
			case op == 10: // a burst into one cycle, long enough for the radix path
				if len(data) < 4 {
					break script
				}
				at := fuzzTarget(now, data[1])
				for i := 0; i < smallRun+int(data[2]&63); i++ {
					schedule(at, keys[(int(data[3])+i)%len(keys)])
				}
				data = data[4:]
			case op <= 13:
				harvest()
				data = data[1:]
			case op == 14: // skip ahead, stopping short of the next event
				if len(data) < 2 {
					break script
				}
				target := now + Cycle(data[1])
				for at := range due {
					target = min(target, at-1)
				}
				w.SkipTo(target)
				now = max(now, target)
				data = data[2:]
			default:
				data = data[1:]
				if restored {
					continue
				}
				restored = true
				st := w.ExportState()
				w = newWheel(restoreSize)
				if err := w.RestoreState(st); err != nil {
					t.Fatalf("restore: %v", err)
				}
			}
		}
		for len(due) > 0 {
			harvest()
		}
		if w.Pending() != 0 {
			t.Fatalf("wheel still holds %d entries after the drain", w.Pending())
		}
	})
}
