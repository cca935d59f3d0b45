package topology

// FuzzRoute generates random topology parameters plus a (src, dst)
// pair, builds the fabric, and checks the routing invariants: a route
// exists, it is loop-free (the walk terminates inside its bound and
// ejects at dst), it respects the VC dateline discipline (layers stay
// in range, never decrease except at a dimension turn or ejection, and
// the packet ejects at layer 0), and the whole shape's
// channel-dependency graph stays acyclic. The seed corpus covers the
// corner shapes: 1-wide torus dimensions, the k=2 torus, the radix-2
// fat-tree, and a dragonfly with a partially filled group.

import (
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/packet"
	"telegraphos/internal/sim"
)

func FuzzRoute(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(3), uint8(0), uint16(0), uint16(15)) // 4x4 torus
	f.Add(uint8(0), uint8(0), uint8(4), uint8(0), uint16(1), uint16(3))  // 1x5 torus: 1-wide dimension
	f.Add(uint8(0), uint8(1), uint8(1), uint8(0), uint16(0), uint16(3))  // 2x2 torus: wrap == step
	f.Add(uint8(1), uint8(1), uint8(2), uint8(3), uint16(5), uint16(20)) // 2x3x4 torus
	f.Add(uint8(2), uint8(1), uint8(0), uint8(0), uint16(0), uint16(1))  // radix-2 fat-tree
	f.Add(uint8(2), uint8(39), uint8(0), uint8(0), uint16(11), uint16(38))
	f.Add(uint8(3), uint8(8), uint8(0), uint8(0), uint16(0), uint16(8))   // dragonfly, partial group
	f.Add(uint8(3), uint8(39), uint8(0), uint8(1), uint16(3), uint16(38)) // valiant dragonfly

	f.Fuzz(func(t *testing.T, kind, x, y, z uint8, srcRaw, dstRaw uint16) {
		e := sim.NewEngine(1)
		var n *Network
		switch kind % 4 {
		case 0:
			n = BuildTorus(e, []int{1 + int(x)%8, 1 + int(y)%8}, lcfg(), scfg())
		case 1:
			n = BuildTorus(e, []int{1 + int(x)%4, 1 + int(y)%4, 1 + int(z)%4}, lcfg(), scfg())
		case 2:
			n = BuildFatTree(e, 1+int(x)%40, lcfg(), scfg())
		default:
			n = BuildDragonfly(e, 1+int(x)%40, z&1 == 1, lcfg(), scfg())
		}
		nn := n.NumNodes()
		src := addrspace.NodeID(int(srcRaw) % nn)
		dst := addrspace.NodeID(int(dstRaw) % nn)
		hops, err := n.Walk(src, dst)
		if err != nil {
			t.Fatalf("%s: route %d->%d: %v", n.Kind(), src, dst, err)
		}
		if len(hops) > 2*len(n.Switches) {
			t.Fatalf("%s: route %d->%d visits %d switches", n.Kind(), src, dst, len(hops))
		}
		for i, h := range hops {
			if h.InLayer >= packet.NumLayers || h.OutLayer >= packet.NumLayers {
				t.Fatalf("%s: hop %d uses layer beyond NumLayers: %+v", n.Kind(), i, h)
			}
		}
		if len(hops) > 0 && hops[len(hops)-1].OutLayer != 0 {
			t.Fatalf("%s: route %d->%d ejects at layer %d, want 0", n.Kind(), src, dst, hops[len(hops)-1].OutLayer)
		}
		if err := n.CheckDeadlockFree(); err != nil {
			t.Fatalf("%s: %v", n.Kind(), err)
		}
	})
}
