package fault

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// testLinks is the link count of the standalone injectors below.
const testLinks = 8

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	cases := []Config{
		{BERScale: 1},
		{BERFloor: 1e-12},
		{RelockFailProb: 0.1},
		{LinkFailures: []LinkFailure{{Link: 0, At: 1, RepairAt: 2}}},
	}
	for i, c := range cases {
		if !c.Enabled() {
			t.Errorf("case %d not enabled: %+v", i, c)
		}
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []Config{
		{BERScale: -1},
		{BERFloor: 2},
		{BERFloor: -0.1},
		{RelockFailProb: 1.5},
		{LinkFailures: []LinkFailure{{Link: -1, At: 0, RepairAt: 10}}},
		{LinkFailures: []LinkFailure{{Link: 0, At: 10, RepairAt: 10}}},
		{LinkFailures: []LinkFailure{{Link: 0, At: 10, RepairAt: 5}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	if err := (Config{BERFloor: 1e-9, RelockFailProb: 0.5}).Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestValidateFor: link indices must also fit the network that will run
// the config — Validate alone cannot know the link count.
func TestValidateFor(t *testing.T) {
	in := Config{LinkFailures: []LinkFailure{{Link: 10, At: 5, RepairAt: 9}}}
	if err := in.Validate(); err != nil {
		t.Errorf("Validate rejected in-range-agnostic config: %v", err)
	}
	if err := in.ValidateFor(11); err != nil {
		t.Errorf("link 10 of 11 rejected: %v", err)
	}
	if err := in.ValidateFor(10); err == nil {
		t.Error("link 10 of 10 accepted")
	}
	// ValidateFor still applies every Validate rule.
	bad := Config{BERScale: -1}
	if err := bad.ValidateFor(100); err == nil {
		t.Error("negative BERScale accepted by ValidateFor")
	}
	if err := (Config{}).ValidateFor(0); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

// TestNewInjectorRejectsForeignFailureLink: a failure window on a link the
// network does not have is rejected before any per-link state is sized from
// it.
func TestNewInjectorRejectsForeignFailureLink(t *testing.T) {
	for _, link := range []int{testLinks, math.MaxInt} {
		cfg := Config{LinkFailures: []LinkFailure{{Link: link, At: 1, RepairAt: 2}}}
		if _, err := NewInjector(cfg, 1, testLinks); err == nil {
			t.Errorf("failure on link %d of %d accepted", link, testLinks)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	d := Config{}.WithDefaults()
	if d.WindowSize != 16 || d.AckDelay != 4 || d.RetxTimeout != 256 ||
		d.MaxRetries != 8 || d.ResetCycles != 1000 || d.MaxRelockRetries != 4 {
		t.Errorf("defaults: %+v", d)
	}
	// Explicit values survive.
	c := Config{WindowSize: 4, AckDelay: 2, RetxTimeout: 50, MaxRetries: 1, ResetCycles: 10, MaxRelockRetries: 1}.WithDefaults()
	if c.WindowSize != 4 || c.AckDelay != 2 || c.RetxTimeout != 50 ||
		c.MaxRetries != 1 || c.ResetCycles != 10 || c.MaxRelockRetries != 1 {
		t.Errorf("explicit knobs overwritten: %+v", c)
	}
}

// TestMaskDeterminism: the same seed produces the same per-link mask
// sequence; a different seed diverges.
func TestMaskDeterminism(t *testing.T) {
	mk := func(seed uint64) []uint16 {
		in, err := NewInjector(Config{BERFloor: 0.05}, seed, testLinks)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint16, 200)
		for i := range out {
			out[i] = in.CorruptionMask(3, sim.Cycle(i))
		}
		return out
	}
	a, b := mk(42), mk(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at draw %d: %x vs %x", i, a[i], b[i])
		}
	}
	c := mk(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical mask sequences")
	}
}

// TestPerLinkStreamIndependence: draws on one link never perturb another
// link's sequence — the property that makes lazy evaluation and
// fast-forward safe.
func TestPerLinkStreamIndependence(t *testing.T) {
	cfg := Config{BERFloor: 0.05}
	mkB := func(drawAFirst int) []uint16 {
		in, err := NewInjector(cfg, 7, testLinks)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < drawAFirst; i++ {
			in.CorruptionMask(0, sim.Cycle(i))
		}
		out := make([]uint16, 100)
		for i := range out {
			out[i] = in.CorruptionMask(1, sim.Cycle(i))
		}
		return out
	}
	clean, interleaved := mkB(0), mkB(500)
	for i := range clean {
		if clean[i] != interleaved[i] {
			t.Fatalf("link 1 draw %d changed by link 0 activity: %x vs %x", i, clean[i], interleaved[i])
		}
	}
}

// TestRelockStreamIndependentOfCorruption: corruption draws on a link do
// not shift its relock stream, and vice versa.
func TestRelockStreamIndependentOfCorruption(t *testing.T) {
	cfg := Config{BERFloor: 0.05, RelockFailProb: 0.5}
	seq := func(corruptFirst int) []bool {
		in, err := NewInjector(cfg, 11, testLinks)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < corruptFirst; i++ {
			in.CorruptionMask(2, sim.Cycle(i))
		}
		r := in.Relock(2)
		out := make([]bool, 100)
		for i := range out {
			out[i] = r.RelockFails()
		}
		return out
	}
	a, b := seq(0), seq(300)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("relock draw %d perturbed by corruption draws", i)
		}
	}
}

// TestCorruptionDisabledDrawsNothing: with only hard failures configured,
// CorruptionMask is always zero (and consumes no randomness — the stream
// is never touched, which keeps zero-corruption runs bit-identical).
func TestCorruptionDisabledDrawsNothing(t *testing.T) {
	in, err := NewInjector(Config{LinkFailures: []LinkFailure{{Link: 0, At: 5, RepairAt: 10}}}, 1, testLinks)
	if err != nil {
		t.Fatal(err)
	}
	for i := sim.Cycle(0); i < 1000; i++ {
		if m := in.CorruptionMask(0, i); m != 0 {
			t.Fatalf("mask %x with corruption disabled", m)
		}
	}
	if s := in.Stats(); s.CorruptedFlits != 0 {
		t.Errorf("counted %d corrupted flits with corruption disabled", s.CorruptedFlits)
	}
}

// TestCorruptionMaskNonZeroWhenFired: a fired corruption always yields a
// non-zero mask (a zero mask would be an undetectable "corruption").
func TestCorruptionMaskNonZeroWhenFired(t *testing.T) {
	in, err := NewInjector(Config{BERFloor: 0.5}, 9, testLinks) // p(flit) ≈ 1
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := sim.Cycle(0); i < 500; i++ {
		if m := in.CorruptionMask(0, i); m != 0 {
			fired++
		}
	}
	if fired < 490 {
		t.Errorf("only %d/500 flits corrupted at BERFloor 0.5 (p≈1)", fired)
	}
	if s := in.Stats(); s.CorruptedFlits != int64(fired) {
		t.Errorf("stats count %d, observed %d", s.CorruptedFlits, fired)
	}
}

func TestDownWindowSchedule(t *testing.T) {
	in, err := NewInjector(Config{LinkFailures: []LinkFailure{
		{Link: 4, At: 100, RepairAt: 200},
		{Link: 4, At: 50, RepairAt: 60}, // out of order on purpose
	}}, 1, testLinks)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		now    sim.Cycle
		down   bool
		repair sim.Cycle
	}{
		{0, false, 0}, {50, true, 60}, {59, true, 60}, {60, false, 0},
		{99, false, 0}, {100, true, 200}, {199, true, 200}, {200, false, 0},
	}
	for _, c := range cases {
		down, repair := in.DownWindow(4, c.now)
		if down != c.down || (down && repair != c.repair) {
			t.Errorf("DownWindow(4, %d) = (%v, %d), want (%v, %d)", c.now, down, repair, c.down, c.repair)
		}
	}
	if down, _ := in.DownWindow(3, 55); down {
		t.Error("unfailed link reports down")
	}
	if at, ok := in.NextFailureAt(4, 0); !ok || at != 50 {
		t.Errorf("NextFailureAt(4, 0) = (%d, %v), want (50, true)", at, ok)
	}
	if at, ok := in.NextFailureAt(4, 70); !ok || at != 100 {
		t.Errorf("NextFailureAt(4, 70) = (%d, %v), want (100, true)", at, ok)
	}
	if at, ok := in.NextFailureAt(4, 150); !ok || at != 150 {
		t.Errorf("NextFailureAt(4, 150) = (%d, %v), want (150, true)", at, ok)
	}
	if _, ok := in.NextFailureAt(4, 500); ok {
		t.Error("NextFailureAt past all windows reports one")
	}
}

func TestRelockProbabilityEdges(t *testing.T) {
	in, err := NewInjector(Config{RelockFailProb: 1}, 2, testLinks)
	if err != nil {
		t.Fatal(err)
	}
	r := in.Relock(0)
	for i := 0; i < 50; i++ {
		if !r.RelockFails() {
			t.Fatal("RelockFailProb 1 produced a success")
		}
	}
	if s := in.Stats(); s.RelockFailures != 50 {
		t.Errorf("relock failures %d, want 50", s.RelockFailures)
	}

	in2, err := NewInjector(Config{BERFloor: 1e-9}, 2, testLinks)
	if err != nil {
		t.Fatal(err)
	}
	r2 := in2.Relock(0)
	for i := 0; i < 50; i++ {
		if r2.RelockFails() {
			t.Fatal("RelockFailProb 0 produced a failure")
		}
	}
}
