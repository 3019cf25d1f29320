package router

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/linkmodel"
	"repro/internal/powerlink"
	"repro/internal/sim"
)

func mustLinkRates(rates ...float64) *powerlink.Link {
	return powerlink.MustNew(powerlink.Config{
		Scheme:     linkmodel.SchemeVCSEL,
		Params:     linkmodel.DefaultParams(),
		LevelRates: rates,
	})
}

// fifoKinds names the two ways a channel FIFO can run: a plain inline ring
// (producer and consumer in one shard) or a shard-crossing one.
var fifoKinds = []struct {
	name     string
	crossing bool
}{{"plain", false}, {"crossing", true}}

// TestFIFOOverflowUnderflow: both FIFOs of both kinds panic on a pop from
// empty and on a push past capacity, and hand flits back in push order.
func TestFIFOOverflowUnderflow(t *testing.T) {
	mustPanic := func(t *testing.T, what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	for _, k := range fifoKinds {
		t.Run("pending/"+k.name, func(t *testing.T) {
			ch := NewChannel(mustLink(), sim.NewWheel(64), func(sim.Cycle, FlitRef) {})
			if k.crossing {
				ch.CrossShards()
			}
			q := &ch.pending
			if (q.cross != nil) != k.crossing {
				t.Fatalf("pending crosses shards = %v, want %v", q.cross != nil, k.crossing)
			}
			mustPanic(t, "pop from an empty FIFO", func() { q.pop() })
			for i := 0; i < pendingCap; i++ {
				q.push(txFlit{seq: uint64(i)})
			}
			mustPanic(t, "push past capacity", func() { q.push(txFlit{}) })
			for i := 0; i < pendingCap; i++ {
				if got := q.pop().seq; got != uint64(i) {
					t.Fatalf("pop %d returned seq %d", i, got)
				}
			}
			mustPanic(t, "pop from a drained FIFO", func() { q.pop() })
		})
		t.Run("rx/"+k.name, func(t *testing.T) {
			ch := reliableChannel(sim.NewWheel(64), &scriptedFaults{}, k.crossing, func(sim.Cycle, FlitRef) {})
			q := &ch.rel.rx
			if (q.cross != nil) != k.crossing || ch.pending.cross != nil {
				t.Fatalf("rx crosses shards = %v, pending = %v; want %v and false", q.cross != nil, ch.pending.cross != nil, k.crossing)
			}
			mustPanic(t, "pop from an empty FIFO", func() { q.pop() })
			for i := 0; i < rxCap; i++ {
				q.push(FlitRef{Seq: int32(i)})
			}
			mustPanic(t, "push past capacity", func() { q.push(FlitRef{}) })
			for i := 0; i < rxCap; i++ {
				if got := q.pop().Seq; got != int32(i) {
					t.Fatalf("pop %d returned seq %d", i, got)
				}
			}
			mustPanic(t, "pop from a drained FIFO", func() { q.pop() })
		})
	}
}

// reliableChannel builds a reliable channel on w the way the network does:
// a shard-crossing channel is declared crossing before reliability is on.
func reliableChannel(w *sim.Wheel, src FaultSource, crossing bool, deliver DeliverFunc) *Channel {
	ch := NewChannel(mustLinkRates(6), w, deliver)
	if crossing {
		ch.CrossShards()
	}
	ch.EnableReliability(ReliabilityConfig{
		Source: src, Window: 8, AckDelay: 4, Timeout: 64, MaxRetries: 3, ResetCycles: 200,
	})
	return ch
}

// channelRig is one channel on its own wheel, driven by a fixed send
// script and recording every delivery.
type channelRig struct {
	w    *sim.Wheel
	ch   *Channel
	pkts []*Packet
	sent int
	log  []string
}

// newRig builds a lossless or reliable channel of either FIFO kind. Links
// run at 6 Gb/s, so a flit takes 5/3 cycles and two are often in flight.
// The reliable channel's faults corrupt a few early transmissions, so its
// replay path runs too.
func newRig(reliable, crossing bool, nPkts int) *channelRig {
	g := &channelRig{w: sim.NewWheel(64)}
	deliver := func(now sim.Cycle, f FlitRef) {
		g.log = append(g.log, fmt.Sprintf("%d:%d/%d", now, f.Pkt.ID, f.Seq))
	}
	if reliable {
		g.ch = reliableChannel(g.w, &scriptedFaults{masks: []uint16{0, 0, 3, 0, 0, 0, 0, 1}}, crossing, deliver)
	} else {
		g.ch = NewChannel(mustLinkRates(6), g.w, deliver)
		if crossing {
			g.ch.CrossShards()
		}
	}
	for i := 0; i < nPkts; i++ {
		g.pkts = append(g.pkts, &Packet{ID: int64(i + 1), Len: 1})
	}
	return g
}

// step runs one cycle: the cycle's events, then one send if the channel
// takes it.
func (g *channelRig) step(now sim.Cycle) {
	g.w.Run(g.w.BeginCycle(now), now)
	if g.sent < len(g.pkts) && g.ch.Usable(now) {
		g.ch.Send(now, FlitRef{Pkt: g.pkts[g.sent]})
		g.sent++
	}
}

// TestChannelCrossingMatchesPlain drives a plain and a shard-crossing
// channel through one send script, lossless and reliable: the FIFO kind
// must not change which flits arrive, when, or in what order.
func TestChannelCrossingMatchesPlain(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		t.Run(fmt.Sprintf("reliable=%v", reliable), func(t *testing.T) {
			plain, cross := newRig(reliable, false, 40), newRig(reliable, true, 40)
			for now := sim.Cycle(0); now < 400; now++ {
				plain.step(now)
				cross.step(now)
			}
			if len(plain.log) != 40 {
				t.Fatalf("plain channel delivered %d of 40 flits", len(plain.log))
			}
			if !reflect.DeepEqual(plain.log, cross.log) {
				t.Fatalf("deliveries differ:\nplain    %v\ncrossing %v", plain.log, cross.log)
			}
		})
	}
}

// TestChannelSnapshotRoundTrip checkpoints each kind of channel with flits
// in flight (and, on a reliable channel, a flit in the rx register),
// restores it into a freshly built twin, and requires the twin to deliver
// exactly what the original delivers from there on.
func TestChannelSnapshotRoundTrip(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		for _, k := range fifoKinds {
			t.Run(fmt.Sprintf("reliable=%v/%s", reliable, k.name), func(t *testing.T) {
				orig := newRig(reliable, k.crossing, 30)
				var (
					st  ChannelSnapshot
					now sim.Cycle
				)
				for ; now < 200; now++ {
					orig.step(now)
					st = orig.ch.ExportState(func(*Packet) {})
					if len(st.Pending) > 1 && (!reliable || len(st.Rel.Rx) > 0) {
						break
					}
				}
				if now == 200 {
					t.Fatal("no cycle ended with two flits in flight (and one in the rx register)")
				}
				wst := orig.w.ExportState()

				twin := newRig(reliable, k.crossing, 30)
				twin.sent = orig.sent
				twin.log = append([]string(nil), orig.log...)
				if err := twin.w.RestoreState(wst); err != nil {
					t.Fatalf("wheel restore: %v", err)
				}
				byID := func(id int64) (*Packet, error) { return twin.pkts[id-1], nil }
				if err := twin.ch.RestoreState(st, byID); err != nil {
					t.Fatalf("channel restore: %v", err)
				}
				if again := twin.ch.ExportState(func(*Packet) {}); !reflect.DeepEqual(again, st) {
					t.Fatalf("restored channel exports\n%+v\nwant\n%+v", again, st)
				}
				if reliable {
					// The scripted faults are consumed per transmission;
					// the twin's source must resume where the original's is.
					*twin.ch.rel.cfg.Source.(*scriptedFaults) = *orig.ch.rel.cfg.Source.(*scriptedFaults)
				}
				for now++; now < 400; now++ {
					orig.step(now)
					twin.step(now)
				}
				if len(orig.log) != 30 {
					t.Fatalf("original delivered %d of 30 flits", len(orig.log))
				}
				if !reflect.DeepEqual(orig.log, twin.log) {
					t.Fatalf("restored channel diverges:\norig %v\ntwin %v", orig.log, twin.log)
				}
			})
		}
	}
}

// TestChannelRestoreRejectsOversizedFIFOs: a snapshot FIFO longer than the
// channel's is an error naming the count and the capacity, not an
// overflow panic.
func TestChannelRestoreRejectsOversizedFIFOs(t *testing.T) {
	resolve := func(int64) (*Packet, error) { return nil, nil }
	for _, k := range fifoKinds {
		t.Run("pending/"+k.name, func(t *testing.T) {
			ch := newRig(false, k.crossing, 0).ch
			err := ch.RestoreState(ChannelSnapshot{Pending: make([]TxFlitState, pendingCap+1)}, resolve)
			if err == nil || !strings.Contains(err.Error(), "5 flits in flight, capacity is 4") {
				t.Fatalf("restore of 5 pending flits: err = %v", err)
			}
		})
		t.Run("rx/"+k.name, func(t *testing.T) {
			ch := newRig(true, k.crossing, 0).ch
			st := ChannelSnapshot{Rel: &RelSnapshot{Rx: make([]FlitDesc, rxCap+1)}}
			err := ch.RestoreState(st, resolve)
			if err == nil || !strings.Contains(err.Error(), "holds 9 flits, capacity is 8") {
				t.Fatalf("restore of 9 rx flits: err = %v", err)
			}
		})
	}
}
