// Package network assembles the complete power-aware opto-electronic
// clustered system of Section 3.1: a MeshW×MeshH mesh of cluster routers,
// each serving NodesPerRack processing nodes over opto-electronic
// injection/ejection links, with every link owned by a power-aware state
// machine and (optionally) a policy controller.
package network

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/linkmodel"
	"repro/internal/policy"
	"repro/internal/powerlink"
	"repro/internal/telemetry"
)

// Port roles within a router: ports [0, NodesPerRack) are local
// injection/ejection ports; the four mesh ports follow.
const (
	DirN = 0
	DirE = 1
	DirS = 2
	DirW = 3
)

// Routing selects the deterministic routing function.
type Routing int

const (
	// RoutingXY resolves the X dimension first (the paper's setup;
	// deadlock-free on the mesh).
	RoutingXY Routing = iota
	// RoutingYX resolves the Y dimension first (equally deadlock-free;
	// shifts which links become bisection hot spots).
	RoutingYX
	// RoutingWestFirst is the adaptive west-first turn model: any westward
	// hops are taken first (deterministically), after which the packet
	// routes adaptively among the remaining productive directions, picking
	// the output with the most downstream credits. Deadlock-free by the
	// turn-model argument; minimal, so livelock-free.
	RoutingWestFirst
)

// Config describes a whole networked system.
type Config struct {
	// MeshW, MeshH are the mesh dimensions in racks (paper: 8×8).
	MeshW, MeshH int
	// NodesPerRack is the number of processing nodes per cluster
	// (paper: 8).
	NodesPerRack int
	// VCs is the number of virtual channels per port (paper: 1 VC with a
	// 16-flit buffer per input port).
	VCs int
	// BufDepth is the input buffer depth per VC in flits.
	BufDepth int
	// Routing selects dimension order (default RoutingXY).
	Routing Routing
	// Link is the power-aware link template instantiated for every
	// unidirectional link in the system.
	Link powerlink.Config
	// PowerAware enables the policy controllers. When false the links are
	// pinned to their top level, modelling the non-power-aware baseline.
	PowerAware bool
	// NodeLinksPowerAware, when false, pins the injection and ejection
	// links at the top bit rate with no controllers while the
	// router-to-router fabric stays power-aware. The paper's design makes
	// every link power-aware (the default, true); this knob supports the
	// Table 3 sensitivity study in EXPERIMENTS.md — single-node links idle
	// at the minimum rate and put a ~2× serialisation floor under every
	// packet, which the paper's reported FFT latency (1.08×) cannot have
	// paid. Ignored when PowerAware is false.
	NodeLinksPowerAware bool
	// Policy parameterises the per-link controllers (ignored when
	// !PowerAware).
	Policy policy.Config
	// Seed drives every stochastic subsystem. Traffic, fault injection,
	// and routing draw from independent streams derived from it (see
	// sim.NewStream), so enabling one never perturbs the others.
	Seed uint64
	// Fault configures fault injection and the link-level retransmission
	// protocol. The zero value disables both: no injector is wired, every
	// channel runs the historical lossless path, and results are
	// bit-identical to a build without the fault layer.
	Fault fault.Config
	// Recovery configures fault-aware routing, escape-VC deadlock
	// avoidance, and the stall watchdog. The zero value disables the
	// subsystem entirely; see RecoveryConfig.
	Recovery RecoveryConfig
	// Telemetry configures the observability subsystem: wheel-driven
	// time-series probes, the flight recorder, and trace exporters. The
	// zero value disables it; a disabled network is byte-identical to a
	// build without the telemetry package.
	Telemetry telemetry.Config
	// Shards is the number of spatial shards the simulation core runs on:
	// the mesh is split into Shards contiguous column tiles, each stepped by
	// its own worker within a conservative one-cycle lookahead window (see
	// DESIGN.md §6g). Results are bit-identical for every shard count —
	// sharding is a performance knob, not a model change. 0 or 1 runs
	// single-threaded; otherwise Shards must divide MeshW.
	Shards int
}

// DefaultConfig returns the paper's system: 64 racks in an 8×8 mesh, 8
// nodes per rack, 16 flits of buffering per input port (2 VCs × 8 flits,
// as in the Popnet virtual-channel router the paper modified), 6 VCSEL
// bit-rate levels over 5-10 Gb/s, Tw = 1000, Table 1 thresholds.
func DefaultConfig() Config {
	return Config{
		MeshW:        8,
		MeshH:        8,
		NodesPerRack: 8,
		VCs:          2,
		BufDepth:     8,
		Link: powerlink.Config{
			Scheme:     linkmodel.SchemeVCSEL,
			Params:     linkmodel.DefaultParams(),
			LevelRates: powerlink.Levels(5, 10, 6),
			Tbr:        20,
			Tv:         100,
		},
		PowerAware:          true,
		NodeLinksPowerAware: true,
		Policy:              policy.PaperConfig(),
		Seed:                1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.MeshW <= 0 || c.MeshH <= 0:
		return fmt.Errorf("network: mesh %dx%d invalid", c.MeshW, c.MeshH)
	case c.NodesPerRack <= 0:
		return fmt.Errorf("network: NodesPerRack must be positive, got %d", c.NodesPerRack)
	case c.VCs <= 0:
		return fmt.Errorf("network: VCs must be positive, got %d", c.VCs)
	case c.BufDepth <= 0:
		return fmt.Errorf("network: BufDepth must be positive, got %d", c.BufDepth)
	case c.Shards < 0:
		return fmt.Errorf("network: Shards must be non-negative, got %d", c.Shards)
	case c.Shards > 1 && c.MeshW%c.Shards != 0:
		return fmt.Errorf("network: Shards %d must divide MeshW %d (contiguous column tiles)", c.Shards, c.MeshW)
	}
	if err := c.Link.Validate(); err != nil {
		return err
	}
	if c.PowerAware {
		if err := c.Policy.Validate(); err != nil {
			return err
		}
	}
	if err := c.Fault.ValidateFor(c.TotalLinks()); err != nil {
		return err
	}
	if err := c.Recovery.validateFor(c.VCs); err != nil {
		return err
	}
	if err := c.Telemetry.Validate(); err != nil {
		return err
	}
	return nil
}

// Nodes returns the total processing-node count.
func (c Config) Nodes() int { return c.MeshW * c.MeshH * c.NodesPerRack }

// Routers returns the router count.
func (c Config) Routers() int { return c.MeshW * c.MeshH }

// PortsPerRouter returns NodesPerRack local ports plus the four mesh
// directions.
func (c Config) PortsPerRouter() int { return c.NodesPerRack + 4 }

// meshPort converts a direction to a router port index.
func (c *Config) meshPort(dir int) int { return c.NodesPerRack + dir }

// InterRouterLinks returns the number of unidirectional router-to-router
// links in the mesh.
func (c Config) InterRouterLinks() int {
	return 2 * (c.MeshW*(c.MeshH-1) + c.MeshH*(c.MeshW-1))
}

// TotalLinks returns every unidirectional opto-electronic link: inter-router
// plus one injection and one ejection link per node. For the paper's
// system: 224 + 512 + 512 = 1248 links (and 20 transmitters per rack:
// 8 inject + 8 eject + 4 mesh).
func (c Config) TotalLinks() int {
	return c.InterRouterLinks() + 2*c.Nodes()
}

// BaselinePowerW returns the power of the equivalent non-power-aware
// network: every link at the maximum bit rate all the time. Power-aware
// results are normalised against this (Section 4.1).
func (c Config) BaselinePowerW() float64 {
	top := c.Link.LevelRates[len(c.Link.LevelRates)-1]
	per := c.Link.Params.LinkPower(c.Link.Scheme, top, c.Link.Params.VddAt(top), c.Link.Params.ModInputOpticalW)
	return per * float64(c.TotalLinks())
}

// linkConfigFor returns the link config, pinned to its top level for
// !PowerAware runs.
func (c Config) linkConfigFor() powerlink.Config {
	if !c.PowerAware {
		return pinnedTop(c.Link)
	}
	return c.Link
}

// pinnedTop returns lc pinned to its top level: one electrical rate, no
// optical ladder, never off.
func pinnedTop(lc powerlink.Config) powerlink.Config {
	lc.LevelRates = []float64{lc.LevelRates[len(lc.LevelRates)-1]}
	lc.Optical = nil
	lc.OffEnabled = false
	return lc
}

// StaticRate returns a copy of the configuration with every link pinned to
// rateGbps and power-awareness disabled — the "statically set at startup"
// comparison of Fig. 5(g).
func (c Config) StaticRate(rateGbps float64) Config {
	out := c
	out.PowerAware = false
	out.Link.LevelRates = []float64{rateGbps}
	out.Link.Optical = nil
	return out
}

// nodeRouter returns the router serving global node id n.
func (c *Config) nodeRouter(n int) int { return n / c.NodesPerRack }

// nodeLocal returns node n's local port at its router.
func (c *Config) nodeLocal(n int) int { return n % c.NodesPerRack }

// routerXY returns router r's mesh coordinates.
func (c *Config) routerXY(r int) (x, y int) { return r % c.MeshW, r / c.MeshW }

// RouterAt returns the router index at mesh coordinates (x, y) — rack
// (x, y) in the paper's notation.
func (c Config) RouterAt(x, y int) int { return y*c.MeshW + x }

// NodeID returns the global id of local node `local` in rack (x, y).
func (c Config) NodeID(x, y, local int) int {
	return c.RouterAt(x, y)*c.NodesPerRack + local
}
