package fault

import (
	"fmt"

	"repro/internal/checkpoint/wire"
	"repro/internal/sim"
)

// LinkFaultState is one link's private fault state: the positions of its two
// RNG sub-streams and its activity counters. The cached corruption
// probability is deliberately excluded — it is a pure function of the link's
// (electrical, optical) level pair and is recomputed on first use after a
// restore.
type LinkFaultState struct {
	Link        int
	CRNG        sim.RNGState
	RRNG        sim.RNGState
	Corrupted   int64
	RelockFails int64
}

// Wire lists the link's fields to c in declaration order.
func (st *LinkFaultState) Wire(c *wire.Codec) {
	wire.Int(c, &st.Link)
	st.CRNG.Wire(c)
	st.RRNG.Wire(c)
	wire.Int(c, &st.Corrupted)
	wire.Int(c, &st.RelockFails)
}

// InjectorState is the exportable mutable state of an Injector. The failure
// schedule and configuration are rebuilt from the scenario, not serialized.
type InjectorState struct {
	Links []LinkFaultState // sorted by Link
}

// Wire lists the injector's fields to c in declaration order.
func (st *InjectorState) Wire(c *wire.Codec) {
	wire.Records(c, &st.Links)
}

// ExportState captures every link's fault state in link-index order.
func (in *Injector) ExportState() InjectorState {
	st := InjectorState{Links: make([]LinkFaultState, len(in.links))}
	for k := range in.links {
		ls := &in.links[k]
		st.Links[k] = LinkFaultState{
			Link:        k,
			CRNG:        ls.crng.State(),
			RRNG:        ls.rrng.State(),
			Corrupted:   ls.corrupted,
			RelockFails: ls.relockFails,
		}
	}
	return st
}

// RestoreState overwrites the per-link fault state of every link the
// snapshot lists and invalidates their probability caches, so the first
// post-restore draw recomputes the probability from the restored powerlink
// level. A link index outside the injector's network is an error.
func (in *Injector) RestoreState(st InjectorState) error {
	for _, l := range st.Links {
		if l.Link < 0 || l.Link >= len(in.links) {
			return fmt.Errorf("fault: snapshot has link index %d, but the network has %d links", l.Link, len(in.links))
		}
		ls := &in.links[l.Link]
		ls.crng.SetState(l.CRNG)
		ls.rrng.SetState(l.RRNG)
		ls.corrupted = l.Corrupted
		ls.relockFails = l.RelockFails
		ls.probValid = false
	}
	return nil
}
