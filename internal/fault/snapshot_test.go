package fault

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestInjectorSnapshotRoundTrip exports an injector mid-run and restores it
// into a fresh injector built from another seed: every link's next
// corruption and relock draws, and the activity counters, must match the
// original's.
func TestInjectorSnapshotRoundTrip(t *testing.T) {
	cfg := Config{BERFloor: 0.05, RelockFailProb: 0.5}
	orig, err := NewInjector(cfg, 3, testLinks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		orig.CorruptionMask(i%testLinks, sim.Cycle(i))
		if i%3 == 0 {
			orig.Relock(i % 5).RelockFails()
		}
	}
	st := orig.ExportState()
	if len(st.Links) != testLinks {
		t.Fatalf("exported %d links, want %d", len(st.Links), testLinks)
	}
	for i, l := range st.Links {
		if i > 0 && l.Link <= st.Links[i-1].Link {
			t.Fatalf("exported links out of order: %d after %d", l.Link, st.Links[i-1].Link)
		}
	}

	restored, err := NewInjector(cfg, 4, testLinks)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Stats(), orig.Stats(); got != want {
		t.Errorf("restored stats %+v, want %+v", got, want)
	}
	for link := 0; link < testLinks; link++ {
		ro, rr := orig.Relock(link), restored.Relock(link)
		for i := 0; i < 50; i++ {
			now := sim.Cycle(200 + i)
			if a, b := orig.CorruptionMask(link, now), restored.CorruptionMask(link, now); a != b {
				t.Fatalf("link %d corruption draw %d: original %#x, restored %#x", link, i, a, b)
			}
			if a, b := ro.RelockFails(), rr.RelockFails(); a != b {
				t.Fatalf("link %d relock draw %d: original %v, restored %v", link, i, a, b)
			}
		}
	}
}

// TestInjectorRestoreRejectsForeignLinks: a snapshot link index outside
// the injector's network is an error, not new state.
func TestInjectorRestoreRejectsForeignLinks(t *testing.T) {
	in, err := NewInjector(Config{BERFloor: 0.05}, 1, testLinks)
	if err != nil {
		t.Fatal(err)
	}
	for _, link := range []int{-1, testLinks, math.MaxInt} {
		st := InjectorState{Links: []LinkFaultState{{Link: link}}}
		if err := in.RestoreState(st); err == nil {
			t.Errorf("snapshot with link %d of %d accepted", link, testLinks)
		}
	}
}
