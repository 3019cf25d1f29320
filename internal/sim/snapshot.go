package sim

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint/wire"
)

// WheelEntryState is one scheduled event in exportable form: its absolute
// fire cycle, its full ordering coordinates and its handler, which names
// the same event in the restore target's handler table.
type WheelEntryState struct {
	At  Cycle
	Key uint32
	Seq uint64
	H   Handler
}

// Wire lists the entry's fields to c in declaration order.
func (e *WheelEntryState) Wire(c *wire.Codec) {
	wire.Int(c, &e.At)
	wire.Uint(c, &e.Key)
	wire.Uint(c, &e.Seq)
	wire.Uint(c, &e.H)
}

// WheelState is the complete exportable state of a Wheel. Handlers is the
// size of the handler table the entries index into.
type WheelState struct {
	Now      Cycle
	Seq      uint64 // insertion-sequence counter at snapshot time
	Handlers int
	Entries  []WheelEntryState
}

// Wire lists the wheel's fields to c in declaration order.
func (st *WheelState) Wire(c *wire.Codec) {
	wire.Int(c, &st.Now)
	wire.Uint(c, &st.Seq)
	wire.Int(c, &st.Handlers)
	wire.Records(c, &st.Entries)
}

// Wire lists the generator position's fields to c in declaration order.
func (st *RNGState) Wire(c *wire.Codec) {
	wire.Uint(c, &st.S0)
	wire.Uint(c, &st.S1)
}

// ExportState captures every pending event with its absolute cycle and
// ordering coordinates, sorted by insertion sequence (a canonical total
// order: sequence numbers are globally unique).
func (w *Wheel) ExportState() WheelState {
	st := WheelState{Now: w.now, Seq: w.seq, Handlers: len(w.handlers) - 1}
	st.Entries = make([]WheelEntryState, 0, w.pending)
	for idx := range w.buckets {
		b := w.buckets[idx]
		if len(b) == 0 {
			continue
		}
		at := w.cycleFor(idx)
		for _, e := range b {
			st.Entries = append(st.Entries, WheelEntryState{At: at, Key: e.Key, Seq: e.Seq, H: e.H})
		}
	}
	for _, fe := range w.far {
		st.Entries = append(st.Entries, WheelEntryState{At: fe.at, Key: fe.Key, Seq: fe.Seq, H: fe.H})
	}
	slices.SortFunc(st.Entries, func(a, b WheelEntryState) int {
		if a.Seq < b.Seq {
			return -1
		}
		if a.Seq > b.Seq {
			return 1
		}
		return 0
	})
	return st
}

// RestoreState wipes the wheel and reloads it from an exported state,
// preserving every entry's At/Key/Seq/H verbatim so the canonical
// (Key, Seq) execution order after restore matches the original run
// exactly. The wheel must hold the handler table the snapshot was taken
// against: a table of another size is an error, as is an entry whose
// handler lies outside the table, an entry at or before the restored clock
// (a restored wheel must be strictly monotonic) and an entry list not
// strictly ascending in Seq, the order ExportState writes and the order
// BeginCycle's harvest relies on (see Wheel).
func (w *Wheel) RestoreState(st WheelState) error {
	if n := len(w.handlers) - 1; st.Handlers != n {
		return fmt.Errorf("sim: snapshot wheel has %d handlers, this wheel registered %d", st.Handlers, n)
	}
	for idx := range w.buckets {
		w.buckets[idx] = w.buckets[idx][:0]
	}
	for i := range w.occ {
		w.occ[i] = 0
	}
	w.far = w.far[:0]
	w.pending = 0
	w.now = st.Now
	w.seq = st.Seq
	for i, e := range st.Entries {
		if e.At <= st.Now {
			return fmt.Errorf("sim: restored wheel entry at %d is not after the restored clock %d", e.At, st.Now)
		}
		if i > 0 && e.Seq <= st.Entries[i-1].Seq {
			return fmt.Errorf("sim: restored wheel entry seq %d does not follow seq %d", e.Seq, st.Entries[i-1].Seq)
		}
		if e.Seq > st.Seq {
			return fmt.Errorf("sim: restored wheel entry seq %d exceeds the sequence counter %d", e.Seq, st.Seq)
		}
		if e.H == 0 || int(e.H) >= len(w.handlers) {
			return fmt.Errorf("sim: restored wheel entry handler %d (at=%d key=%#x) is outside the table [1, %d]", e.H, e.At, e.Key, len(w.handlers)-1)
		}
		w.insert(e.At, Entry{Key: e.Key, Seq: e.Seq, H: e.H})
	}
	if Debug {
		if next, ok := w.NextEventAt(); ok {
			Assertf(next > w.now, "wheel: restore left an event at %d at or before the clock %d", next, w.now)
		}
		Assertf(w.pending == len(st.Entries), "wheel: restore pending mismatch %d != %d", w.pending, len(st.Entries))
	}
	return nil
}
