package router

import (
	"testing"

	"repro/internal/linkmodel"
	"repro/internal/powerlink"
	"repro/internal/sim"
)

// scriptedFaults is a deterministic FaultSource driven by a script:
// masks[i] corrupts the i-th transmission (0 = clean), and one hard-down
// window [downFrom, downTo) swallows arrivals.
type scriptedFaults struct {
	masks            []uint16
	next             int
	downFrom, downTo sim.Cycle
}

func (s *scriptedFaults) CorruptionMask(link int, now sim.Cycle) uint16 {
	if s.next < len(s.masks) {
		m := s.masks[s.next]
		s.next++
		return m
	}
	return 0
}

func (s *scriptedFaults) DownWindow(link int, now sim.Cycle) (bool, sim.Cycle) {
	if now >= s.downFrom && now < s.downTo {
		return true, s.downTo
	}
	return false, 0
}

// runReplayScenario drives one channel with reliability enabled through a
// scripted fault pattern and checks the protocol's core guarantee: every
// flit is delivered exactly once, in order, within a bounded time.
func runReplayScenario(t *testing.T, src *scriptedFaults, nFlits int) {
	t.Helper()
	w := sim.NewWheel(4096)
	var got []int64
	ch := NewChannel(testLink(t, []float64{10}), w, func(now sim.Cycle, f FlitRef) {
		got = append(got, f.Pkt.ID)
	})
	ch.EnableReliability(ReliabilityConfig{
		Source:      src,
		Link:        0,
		Window:      8,
		AckDelay:    4,
		Timeout:     64,
		MaxRetries:  3,
		ResetCycles: 200,
	})

	pkts := make([]*Packet, nFlits)
	for i := range pkts {
		pkts[i] = &Packet{ID: int64(i + 1), Len: 1}
	}

	// Every fault the script can express is finite (masks run out, the
	// down window closes), so the watchdog must recover everything well
	// inside this deadline.
	const deadline = sim.Cycle(100_000)
	sent := 0
	for now := sim.Cycle(0); now < deadline; now++ {
		fireCycle(w, now)
		if sent < nFlits && ch.Usable(now) {
			ch.Send(now, FlitRef{Pkt: pkts[sent], Seq: 0, VC: 0})
			sent++
		}
		if len(got) == nFlits && ch.OutstandingFlits() == 0 && w.Pending() == 0 {
			break
		}
	}

	if len(got) != nFlits {
		t.Fatalf("delivered %d of %d flits by the deadline (outstanding %d, stats %+v)",
			len(got), nFlits, ch.OutstandingFlits(), ch.RelStats())
	}
	for i, id := range got {
		if id != int64(i+1) {
			t.Fatalf("delivery %d has packet ID %d, want %d (exactly-once in-order violated): %v",
				i, id, i+1, got)
		}
	}
	if ch.OutstandingFlits() != 0 {
		t.Errorf("%d flits still unacknowledged after full delivery", ch.OutstandingFlits())
	}
}

// FuzzChannelReplay fuzzes the go-back-N replay window: arbitrary
// corruption masks on arbitrary transmissions plus an arbitrary hard-down
// window must never lose, duplicate, or reorder a flit.
func FuzzChannelReplay(f *testing.F) {
	f.Add([]byte{})                                   // lossless
	f.Add([]byte{0x01, 0x00, 0xff, 0x00})             // sparse corruption
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // dense corruption
	f.Add([]byte{0x00, 0x10, 0x40, 0x03})             // window mid-stream
	f.Add([]byte{0x07, 0x00, 0x01, 0x20, 0x80, 0x01, 0x00, 0x44})

	f.Fuzz(func(t *testing.T, data []byte) {
		src := &scriptedFaults{}
		// First two bytes (if present) place a hard-down window inside the
		// first ~4k cycles; remaining bytes are per-transmission masks
		// (byte b corrupts transmission i with mask b when b != 0).
		if len(data) >= 2 {
			src.downFrom = sim.Cycle(data[0]) * 16
			src.downTo = src.downFrom + sim.Cycle(data[1])*4
			data = data[2:]
		}
		// Cap the script: masks beyond the first 256 transmissions only
		// lengthen the run without adding new protocol states.
		if len(data) > 256 {
			data = data[:256]
		}
		src.masks = make([]uint16, len(data))
		for i, b := range data {
			src.masks[i] = uint16(b)
		}
		runReplayScenario(t, src, 40)
	})
}

// TestChannelReplayCorruptionBurst pins one deterministic scenario: a
// burst of corrupted transmissions at the head of the stream forces
// NACK-triggered go-back-N replay, and everything still arrives exactly
// once in order.
func TestChannelReplayCorruptionBurst(t *testing.T) {
	runReplayScenario(t, &scriptedFaults{
		masks: []uint16{0xffff, 0x0001, 0x8000, 0, 0, 0x0100},
	}, 40)
}

// TestChannelReplayDownWindow pins the silent-loss path: a down window
// swallows in-flight flits with no NACK, so only the watchdog can recover
// them.
func TestChannelReplayDownWindow(t *testing.T) {
	runReplayScenario(t, &scriptedFaults{downFrom: 10, downTo: 400}, 40)
}

// TestChannelReliabilityZeroOverheadPath: a channel without
// EnableReliability reports itself lossless and has no replay state.
func TestChannelReliabilityZeroOverheadPath(t *testing.T) {
	w := sim.NewWheel(64)
	ch := NewChannel(testLink(t, []float64{10}), w, func(sim.Cycle, FlitRef) {})
	if ch.ReliabilityEnabled() {
		t.Error("fresh channel claims reliability enabled")
	}
	if ch.OutstandingFlits() != 0 {
		t.Error("lossless channel reports outstanding flits")
	}
	if ch.DownAt(0) {
		t.Error("lossless channel reports down")
	}
}

// TestFlitCRCDetectsSingleBitErrors: CRC-16/CCITT detects every
// single-bit error in the covered header, so any single-bit flip of the
// packet ID or sequence number must change the CRC.
func TestFlitCRCDetectsSingleBitErrors(t *testing.T) {
	base := flitCRC(12345, 678, 2)
	for bit := 0; bit < 64; bit++ {
		if flitCRC(12345^int64(1)<<bit, 678, 2) == base {
			t.Errorf("pktID bit %d flip undetected", bit)
		}
		if flitCRC(12345, 678^uint64(1)<<bit, 2) == base {
			t.Errorf("seq bit %d flip undetected", bit)
		}
	}
	if flitCRC(12345, 678, 3) == base {
		t.Error("VC flip undetected")
	}
}

func TestChannelReliabilityMisuse(t *testing.T) {
	w := sim.NewWheel(64)
	ch := NewChannel(testLink(t, []float64{10}), w, func(sim.Cycle, FlitRef) {})
	src := &scriptedFaults{}
	cfg := ReliabilityConfig{Source: src, Window: 4, AckDelay: 2, Timeout: 32, MaxRetries: 2, ResetCycles: 100}
	ch.EnableReliability(cfg)
	defer func() {
		if recover() == nil {
			t.Error("double EnableReliability did not panic")
		}
	}()
	ch.EnableReliability(cfg)
}

// testRelLink builds the single-rate link used by the powerlink-level
// relock tests below (kept here so channel and relock tests share idiom).
func testRelLink(t *testing.T) *powerlink.Link {
	t.Helper()
	return powerlink.MustNew(powerlink.Config{
		Scheme:     linkmodel.SchemeVCSEL,
		Params:     linkmodel.DefaultParams(),
		LevelRates: []float64{5, 10},
		Tbr:        20,
		Tv:         100,
	})
}

// alwaysFailRelock fails every CDR relock attempt.
type alwaysFailRelock struct{}

func (alwaysFailRelock) RelockFails() bool { return true }

// TestRelockFailureExtendsTransition: with a relock fault source that
// always fails, a downward transition's frequency-switch phase retries
// with doubling backoff until the retry budget forces lock, and the
// failure count is reported in the link's stats.
func TestRelockFailureExtendsTransition(t *testing.T) {
	l := testRelLink(t)
	l.SetRelockFaults(alwaysFailRelock{}, 3)
	if l.Level(0) != 1 {
		t.Fatalf("link starts at level %d, want top (1)", l.Level(0))
	}
	if !l.RequestStep(0, -1) {
		t.Fatal("downward step refused")
	}
	// Tbr = 20: nominal lock at 20 fails (retry 1, +40 → 60), 60 fails
	// (retry 2, +80 → 140), 140 fails (retry 3, +160 → 300); the budget
	// is then spent and lock is forced at 300, after which Tv = 100 of
	// voltage ramp completes the transition at 400.
	if !l.Transitioning(250) {
		t.Error("transition ended before the backoff chain could finish")
	}
	if got := l.Stats(250).RelockFailures; got != 3 {
		t.Errorf("relock failures at cycle 250 = %d, want 3", got)
	}
	if l.Level(500) != 0 {
		t.Errorf("level after retries = %d, want 0", l.Level(500))
	}
	if l.Transitioning(500) {
		t.Error("still transitioning at cycle 500")
	}
}
