package network

import (
	"math"
	"testing"

	"repro/internal/router"
	"repro/internal/traffic"
)

func TestRouteXYPath(t *testing.T) {
	cfg := DefaultConfig()
	n := MustNew(cfg, nil)
	// From rack (1,1) to rack (4,3): XY goes East until x matches, then
	// South, then the local port.
	src := cfg.RouterAt(1, 1)
	dstNode := cfg.NodeID(4, 3, 6)
	p := &router.Packet{Dst: dstNode, DstRouter: cfg.nodeRouter(dstNode), DstLocal: cfg.nodeLocal(dstNode)}

	hops := []int{}
	r := src
	for i := 0; i < 20; i++ {
		port := n.routeXY(r, p)
		hops = append(hops, port)
		if port < cfg.NodesPerRack {
			break
		}
		x, y := cfg.routerXY(r)
		switch port - cfg.NodesPerRack {
		case DirE:
			r = cfg.RouterAt(x+1, y)
		case DirW:
			r = cfg.RouterAt(x-1, y)
		case DirS:
			r = cfg.RouterAt(x, y+1)
		case DirN:
			r = cfg.RouterAt(x, y-1)
		}
	}
	// 3 east hops, 2 south hops, then eject at local port 6.
	want := []int{
		cfg.meshPort(DirE), cfg.meshPort(DirE), cfg.meshPort(DirE),
		cfg.meshPort(DirS), cfg.meshPort(DirS), 6,
	}
	if len(hops) != len(want) {
		t.Fatalf("path %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("path %v, want %v", hops, want)
		}
	}
}

func TestRouteYXPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Routing = RoutingYX
	n := MustNew(cfg, nil)
	src := cfg.RouterAt(1, 1)
	dstNode := cfg.NodeID(4, 3, 6)
	p := &router.Packet{Dst: dstNode, DstRouter: cfg.nodeRouter(dstNode), DstLocal: cfg.nodeLocal(dstNode)}
	// First hop must be South (Y first), not East.
	if port := n.routeYX(src, p); port != cfg.meshPort(DirS) {
		t.Errorf("YX first hop = %d, want S=%d", port, cfg.meshPort(DirS))
	}
	// At the right row, it goes East.
	mid := cfg.RouterAt(1, 3)
	if port := n.routeYX(mid, p); port != cfg.meshPort(DirE) {
		t.Errorf("YX in-row hop = %d, want E=%d", port, cfg.meshPort(DirE))
	}
	// At the destination router, eject locally.
	if port := n.routeYX(p.DstRouter, p); port != 6 {
		t.Errorf("YX eject = %d, want 6", port)
	}
}

func TestYXNetworkDelivers(t *testing.T) {
	cfg := smallConfig()
	cfg.Routing = RoutingYX
	gen := traffic.NewUniform(cfg.Nodes(), 0.3, 5)
	n := MustNew(cfg, gen)
	n.RunTo(20_000)
	if n.DeliveredPackets() < n.InjectedPackets()*9/10 {
		t.Errorf("YX network delivered %d of %d", n.DeliveredPackets(), n.InjectedPackets())
	}
}

// TestNodeLinksFixedKeepsNodeLinksAtTop: with NodeLinksPowerAware=false the
// injection/ejection links never leave the top rate while the fabric still
// scales.
func TestNodeLinksFixedKeepsNodeLinksAtTop(t *testing.T) {
	cfg := smallConfig()
	cfg.NodeLinksPowerAware = false
	gen := traffic.NewUniform(cfg.Nodes(), 0.05, 5)
	n := MustNew(cfg, gen)
	n.RunTo(50_000)
	inter := cfg.InterRouterLinks()
	for i, ch := range n.Channels() {
		lv := ch.PLink().Level(n.Now())
		if i < inter {
			continue // fabric may be at any level
		}
		if ch.PLink().NumLevels() != 1 {
			t.Fatalf("node link %d has %d levels, want pinned single level", i, ch.PLink().NumLevels())
		}
		if lv != 0 {
			t.Fatalf("node link %d at level %d of a single-level ladder", i, lv)
		}
	}
	// The fabric must have scaled down at this light load.
	sawLow := false
	for _, ch := range n.Channels()[:inter] {
		if ch.PLink().Level(n.Now()) < ch.PLink().NumLevels()-1 {
			sawLow = true
		}
	}
	if !sawLow {
		t.Error("no fabric link scaled down at light load")
	}
	// And controllers exist only for the fabric.
	if got := len(n.Controllers()); got != inter {
		t.Errorf("%d controllers, want %d (fabric only)", got, inter)
	}
}

func TestLevelHistograms(t *testing.T) {
	cfg := smallConfig()
	gen := traffic.NewUniform(cfg.Nodes(), 0.05, 5)
	n := MustNew(cfg, gen)
	n.RunTo(30_000)
	levels, off := n.LevelHistogram()
	if off != 0 {
		t.Errorf("%d links off without OffEnabled", off)
	}
	sum := 0
	for _, c := range levels {
		sum += c
	}
	if sum != cfg.TotalLinks() {
		t.Errorf("histogram counts %d links, want %d", sum, cfg.TotalLinks())
	}
	// At light load most links sit at the bottom level.
	if levels[0] < cfg.TotalLinks()/2 {
		t.Errorf("only %d of %d links at the bottom level under light load", levels[0], cfg.TotalLinks())
	}
	frac := n.TimeAtLevelHistogram()
	var total float64
	for _, f := range frac {
		if f < 0 || f > 1 {
			t.Fatalf("fraction %g out of range", f)
		}
		total += f
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("time fractions sum to %g", total)
	}
}

// TestTimeAtLevelCountsOffTime: link-time spent off is part of the
// histogram's denominator for single-level links too, so an on/off link
// that sleeps most of the run does not report all of its time at the top
// level.
func TestTimeAtLevelCountsOffTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeshW, cfg.MeshH = 4, 4
	cfg.Link.LevelRates = []float64{10}
	cfg.Link.OffEnabled = true
	cfg.Link.OffPowerW = 0.005
	cfg.Link.OffWakeCycles = 625
	n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 0.02, 5))
	n.RunTo(50_000)
	var on, off float64
	for _, ch := range n.Channels() {
		st := ch.PLink().Stats(n.Now())
		on += float64(st.TimeAtLevel[0])
		off += float64(st.TimeOff)
	}
	if off == 0 {
		t.Fatal("setup: no link ever switched off")
	}
	frac := n.TimeAtLevelHistogram()
	if want := on / (on + off); len(frac) != 1 || math.Abs(frac[0]-want) > 1e-9 {
		t.Errorf("time-at-level %v, want [%g] (links off %.0f%% of link-time)", frac, want, 100*off/(on+off))
	}
}

func TestLevelHistogramNonPA(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = false
	n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 0.05, 5))
	n.RunTo(5_000)
	levels, _ := n.LevelHistogram()
	top := len(levels) - 1
	if levels[top] != cfg.TotalLinks() {
		t.Errorf("non-PA links not all reported at top: %v", levels)
	}
}

// TestWestFirstTurnModel: westward hops only ever occur before any other
// direction — the invariant that makes west-first deadlock-free.
func TestWestFirstTurnModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Routing = RoutingWestFirst
	n := MustNew(cfg, nil)
	w := cfg.meshPort(DirW)
	for srcR := 0; srcR < cfg.Routers(); srcR += 5 {
		for dstN := 0; dstN < cfg.Nodes(); dstN += 37 {
			p := &router.Packet{Dst: dstN, DstRouter: cfg.nodeRouter(dstN), DstLocal: cfg.nodeLocal(dstN)}
			r := srcR
			sawNonWest := false
			for hop := 0; hop < 20; hop++ {
				port := n.routeWestFirst(r, p)
				if port < cfg.NodesPerRack {
					break // ejected
				}
				dir := port - cfg.NodesPerRack
				if port == w && sawNonWest {
					t.Fatalf("west turn after non-west hop: src router %d dst node %d", srcR, dstN)
				}
				if port != w {
					sawNonWest = true
				}
				x, y := cfg.routerXY(r)
				switch dir {
				case DirE:
					r = cfg.RouterAt(x+1, y)
				case DirW:
					r = cfg.RouterAt(x-1, y)
				case DirS:
					r = cfg.RouterAt(x, y+1)
				case DirN:
					r = cfg.RouterAt(x, y-1)
				}
			}
			if r != p.DstRouter {
				// walk once more to confirm ejection
				if n.routeWestFirst(r, p) >= cfg.NodesPerRack {
					t.Fatalf("west-first did not reach destination: src %d dst %d stopped at %d", srcR, dstN, r)
				}
			}
		}
	}
}

// TestWestFirstMinimal: the hop count equals the Manhattan distance.
func TestWestFirstMinimal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Routing = RoutingWestFirst
	n := MustNew(cfg, nil)
	src := cfg.RouterAt(5, 2)
	dstN := cfg.NodeID(1, 6, 0)
	p := &router.Packet{Dst: dstN, DstRouter: cfg.nodeRouter(dstN), DstLocal: 0}
	hops := 0
	r := src
	for hops < 30 {
		port := n.routeWestFirst(r, p)
		if port < cfg.NodesPerRack {
			break
		}
		hops++
		x, y := cfg.routerXY(r)
		switch port - cfg.NodesPerRack {
		case DirE:
			r = cfg.RouterAt(x+1, y)
		case DirW:
			r = cfg.RouterAt(x-1, y)
		case DirS:
			r = cfg.RouterAt(x, y+1)
		case DirN:
			r = cfg.RouterAt(x, y-1)
		}
	}
	if hops != 8 { // |5-1| + |2-6|
		t.Errorf("west-first took %d hops, want 8 (minimal)", hops)
	}
}

func TestWestFirstNetworkDelivers(t *testing.T) {
	cfg := smallConfig()
	cfg.Routing = RoutingWestFirst
	gen := traffic.NewUniform(cfg.Nodes(), 0.4, 5)
	n := MustNew(cfg, gen)
	n.RunTo(30_000)
	if n.DeliveredPackets() < n.InjectedPackets()*9/10 {
		t.Errorf("west-first delivered %d of %d", n.DeliveredPackets(), n.InjectedPackets())
	}
}

// TestTwentyFibresPerRack: Fig. 3/4 of the paper count 20 transmitters per
// rack — 8 injection (node->router), 8 ejection (router->node), and 4
// inter-router. Interior racks of the mesh must have exactly that; corner
// racks have 2 inter-router outputs.
func TestTwentyFibresPerRack(t *testing.T) {
	cfg := DefaultConfig()
	n := MustNew(cfg, nil)
	countTx := func(r int) int {
		rt := n.Routers()[r]
		tx := cfg.NodesPerRack // the 8 node->router transmitters live on the nodes
		for p := 0; p < cfg.PortsPerRouter(); p++ {
			if rt.Output(p).Channel() != nil {
				tx++ // router-side transmitter (ejection or inter-router)
			}
		}
		return tx
	}
	interior := cfg.RouterAt(3, 4)
	if got := countTx(interior); got != 20 {
		t.Errorf("interior rack has %d transmitters, want 20", got)
	}
	corner := cfg.RouterAt(0, 0)
	if got := countTx(corner); got != 18 {
		t.Errorf("corner rack has %d transmitters, want 18 (2 mesh neighbours)", got)
	}
}
