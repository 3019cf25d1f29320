package network

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// keyUse is one ordering key the network handed out, with the owner and
// src the layout must decode it to.
type keyUse struct {
	what            string
	key, owner, src uint32
}

// handedOutKeys lists every ordering key New wired into n — router self
// and credit keys, channel self and deliver keys, NIC self keys — each
// with the (owner, src) pair its wiring intends.
func handedOutKeys(n *Network) []keyUse {
	cfg := &n.cfg
	var uses []keyUse
	add := func(what string, key, owner, src uint32) {
		uses = append(uses, keyUse{what: what, key: key, owner: owner, src: src})
	}
	for r, rt := range n.routers {
		a := n.routerActor(r)
		add(fmt.Sprintf("router %d self", r), rt.Key(), a, a)
	}
	for li, pos := range n.meshRef {
		dst, rev, _ := cfg.neighbor(pos.r, pos.dir)
		self, deliver := n.channels[li].Keys()
		add(fmt.Sprintf("mesh link %d self", li), self, n.routerActor(pos.r), n.chanSrc(li))
		add(fmt.Sprintf("mesh link %d deliver", li), deliver, n.routerActor(dst), n.chanSrc(li))
		for v := 0; v < cfg.VCs; v++ {
			add(fmt.Sprintf("mesh link %d VC %d credit", li, v), n.routers[dst].CreditKey(cfg.meshPort(rev), v),
				n.routerActor(pos.r), n.routerActor(dst))
		}
	}
	for node, nc := range n.nics {
		r, na := cfg.nodeRouter(node), n.nicActor(node)
		ra := n.routerActor(r)
		add(fmt.Sprintf("NIC %d self", node), nc.selfKey, na, na)
		in := cfg.InterRouterLinks() + 2*node
		self, deliver := n.channels[in].Keys()
		add(fmt.Sprintf("injection link %d self", in), self, na, n.chanSrc(in))
		add(fmt.Sprintf("injection link %d deliver", in), deliver, ra, n.chanSrc(in))
		for v := 0; v < cfg.VCs; v++ {
			add(fmt.Sprintf("NIC %d VC %d credit", node, v), n.routers[r].CreditKey(cfg.nodeLocal(node), v), na, ra)
		}
		self, deliver = n.channels[in+1].Keys()
		add(fmt.Sprintf("ejection link %d self", in+1), self, ra, n.chanSrc(in+1))
		add(fmt.Sprintf("ejection link %d deliver", in+1), deliver, ra, n.chanSrc(in+1))
	}
	return uses
}

// TestKeyLayout: on the paper system and the 2×2 and 3×3 meshes, every
// key the network hands out decodes to the owner and src its wiring
// intends, and numeric key order is (owner, src) order — the canonical
// order the 64-bit layout gave, so every output stays byte-identical.
func TestKeyLayout(t *testing.T) {
	threeByThree := DefaultConfig()
	threeByThree.MeshW, threeByThree.MeshH, threeByThree.NodesPerRack = 3, 3, 3
	for _, tc := range []struct {
		name               string
		cfg                Config
		ownerBits, srcBits int
	}{
		// Owners reach 576 and srcs 1824 on the paper system.
		{"paper", DefaultConfig(), 10, 11},
		{"2x2", smallConfig(), 4, 6},
		{"3x3", threeByThree, 6, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ownerBits, srcBits := tc.cfg.keyBits()
			if ownerBits != tc.ownerBits || srcBits != tc.srcBits {
				t.Fatalf("key layout %d owner + %d src bits, want %d + %d", ownerBits, srcBits, tc.ownerBits, tc.srcBits)
			}
			n := MustNew(tc.cfg, nil)
			defer n.Close()
			uses := handedOutKeys(n)
			for _, u := range uses {
				if got, want := u.key>>n.srcBits, u.owner; got != want {
					t.Fatalf("%s: key %#x decodes to owner %d, want %d", u.what, u.key, got, want)
				}
				if got, want := u.key&(1<<n.srcBits-1), u.src; got != want {
					t.Fatalf("%s: key %#x decodes to src %d, want %d", u.what, u.key, got, want)
				}
				if u.owner == 0 || u.key>>(ownerBits+srcBits) != 0 {
					t.Fatalf("%s: key %#x (owner %d) outside the %d-bit layout or in the coordinator band", u.what, u.key, u.owner, ownerBits+srcBits)
				}
			}
			slices.SortStableFunc(uses, func(a, b keyUse) int { return cmp.Compare(a.key, b.key) })
			for i := 1; i < len(uses); i++ {
				a, b := uses[i-1], uses[i]
				same := a.owner == b.owner && a.src == b.src
				if (a.key == b.key) != same || a.owner > b.owner || a.owner == b.owner && a.src > b.src {
					t.Fatalf("key order breaks (owner, src) order: %s %#x = (%d, %d) sorts before %s %#x = (%d, %d)",
						a.what, a.key, a.owner, a.src, b.what, b.key, b.owner, b.src)
				}
			}
		})
	}
}

// TestNewRefusesWideKeys: a topology whose keys need more than 32 bits is
// refused by New, before it builds a single router, with an error naming
// the width. A 64×64 mesh with 8 nodes per rack needs 16 owner bits and
// 17 src bits.
func TestNewRefusesWideKeys(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeshW, cfg.MeshH = 64, 64
	var err error
	allocs := testing.AllocsPerRun(1, func() { _, err = New(cfg, nil) })
	if err == nil || !strings.Contains(err.Error(), "33 bits") {
		t.Fatalf("New(64x64 mesh, 8 nodes per rack): err = %v, want a 33-bit key layout refused", err)
	}
	// 4096 routers of 12 ports would take hundreds of thousands.
	if allocs > 50 {
		t.Errorf("New made %.0f allocations before refusing the layout", allocs)
	}
}
