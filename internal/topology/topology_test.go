package topology

import (
	"fmt"
	"testing"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/link"
	"telegraphos/internal/packet"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/switchfab"
)

func lcfg() link.Config {
	return link.Config{PropDelay: 10, WordTime: 30, BufPackets: 4}
}
func scfg() switchfab.Config { return switchfab.Config{RouteDelay: 100} }

// deliverAll sends packets (src,dst,val) and collects what each node receives.
func runTraffic(t *testing.T, n *Network, e *sim.Engine, sends [][3]uint64) map[addrspace.NodeID][]uint64 {
	t.Helper()
	got := make(map[addrspace.NodeID][]uint64)
	total := len(sends)
	received := 0
	perSrc := make(map[addrspace.NodeID][][3]uint64)
	for _, s := range sends {
		perSrc[addrspace.NodeID(s[0])] = append(perSrc[addrspace.NodeID(s[0])], s)
	}
	for src, list := range perSrc {
		src, list := src, list
		e.Spawn(fmt.Sprintf("src%d", src), func(p *sim.Proc) {
			for _, s := range list {
				n.Send(p, &packet.Packet{
					Type: packet.WriteReq,
					Src:  src,
					Dst:  addrspace.NodeID(s[1]),
					Val:  s[2],
				})
			}
		})
	}
	for i := 0; i < n.NumNodes(); i++ {
		id := addrspace.NodeID(i)
		e.SpawnDaemon(fmt.Sprintf("sink%d", i), func(p *sim.Proc) {
			for {
				pkt := n.Recv(p, id, packet.VCRequest)
				got[id] = append(got[id], pkt.Val)
				received++
				if received == total {
					e.Stop()
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("delivered %d of %d packets", received, total)
	}
	return got
}

func TestPairDelivery(t *testing.T) {
	e := sim.NewEngine(1)
	n := BuildPair(OneEngine(e), lcfg())
	if n.NumNodes() != 2 || n.Kind() != "pair" {
		t.Fatalf("pair built wrong: %d nodes", n.NumNodes())
	}
	got := runTraffic(t, n, e, [][3]uint64{{0, 1, 10}, {0, 1, 11}, {1, 0, 20}})
	if len(got[1]) != 2 || got[1][0] != 10 || got[1][1] != 11 {
		t.Fatalf("node 1 received %v", got[1])
	}
	if len(got[0]) != 1 || got[0][0] != 20 {
		t.Fatalf("node 0 received %v", got[0])
	}
}

func TestStarDeliveryAllPairs(t *testing.T) {
	e := sim.NewEngine(1)
	const nn = 4
	n := BuildStar(OneEngine(e), nn, lcfg(), scfg())
	var sends [][3]uint64
	val := uint64(100)
	for s := 0; s < nn; s++ {
		for d := 0; d < nn; d++ {
			if s == d {
				continue
			}
			sends = append(sends, [3]uint64{uint64(s), uint64(d), val})
			val++
		}
	}
	got := runTraffic(t, n, e, sends)
	count := 0
	for _, vs := range got {
		count += len(vs)
	}
	if count != len(sends) {
		t.Fatalf("received %d, want %d", count, len(sends))
	}
	if n.Switches[0].Misroutes() != 0 {
		t.Fatalf("misroutes: %d", n.Switches[0].Misroutes())
	}
}

func TestStarInOrderPerPair(t *testing.T) {
	e := sim.NewEngine(1)
	n := BuildStar(OneEngine(e), 3, lcfg(), scfg())
	var sends [][3]uint64
	for i := 0; i < 50; i++ {
		sends = append(sends, [3]uint64{0, 2, uint64(i)})
	}
	got := runTraffic(t, n, e, sends)
	for i, v := range got[2] {
		if v != uint64(i) {
			t.Fatalf("out-of-order delivery at %d: %v", i, got[2][:i+1])
		}
	}
}

func TestChainMultiHop(t *testing.T) {
	e := sim.NewEngine(1)
	// 6 nodes, 2 per switch -> 3 switches; 0 and 5 are 3 switch hops apart.
	n := BuildChain(OneEngine(e), 6, 2, lcfg(), scfg())
	if len(n.Switches) != 3 {
		t.Fatalf("chain has %d switches, want 3", len(n.Switches))
	}
	got := runTraffic(t, n, e, [][3]uint64{
		{0, 5, 1}, {5, 0, 2}, {0, 1, 3}, {2, 3, 4}, {4, 1, 5},
	})
	if len(got[5]) != 1 || got[5][0] != 1 {
		t.Fatalf("end-to-end chain delivery failed: %v", got[5])
	}
	if len(got[0]) != 1 || got[0][0] != 2 {
		t.Fatalf("reverse chain delivery failed: %v", got[0])
	}
	if len(got[1]) != 2 {
		t.Fatalf("node 1 should receive 2 packets: %v", got[1])
	}
	for _, sw := range n.Switches {
		if sw.Misroutes() != 0 {
			t.Fatalf("switch %s misrouted", sw.Name())
		}
	}
}

func TestChainInOrderAcrossHops(t *testing.T) {
	e := sim.NewEngine(1)
	n := BuildChain(OneEngine(e), 8, 2, lcfg(), scfg())
	var sends [][3]uint64
	for i := 0; i < 100; i++ {
		sends = append(sends, [3]uint64{0, 7, uint64(i)})
	}
	got := runTraffic(t, n, e, sends)
	for i, v := range got[7] {
		if v != uint64(i) {
			t.Fatalf("multi-hop reorder at %d: got %d", i, v)
		}
	}
}

func TestChainLatencyGrowsWithHops(t *testing.T) {
	measure := func(dst addrspace.NodeID) sim.Time {
		e := sim.NewEngine(1)
		n := BuildChain(OneEngine(e), 8, 2, lcfg(), scfg())
		var arrival sim.Time
		e.Spawn("src", func(p *sim.Proc) {
			n.Send(p, &packet.Packet{Type: packet.WriteReq, Src: 0, Dst: dst})
		})
		e.Spawn("sink", func(p *sim.Proc) {
			n.Recv(p, dst, packet.VCRequest)
			arrival = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return arrival
	}
	near := measure(1) // same switch
	far := measure(7)  // 3 switches away
	if far <= near {
		t.Fatalf("far latency %v should exceed near latency %v", far, near)
	}
}

func TestSwitchRouteValidation(t *testing.T) {
	e := sim.NewEngine(1)
	sw := switchfab.New(e, "sw", scfg())
	defer func() {
		if recover() == nil {
			t.Fatal("SetRoute to nonexistent port should panic")
		}
	}()
	sw.SetRoute(0, 3)
}

func TestMisrouteCounted(t *testing.T) {
	e := sim.NewEngine(1)
	n := BuildStar(OneEngine(e), 2, lcfg(), scfg())
	e.Spawn("src", func(p *sim.Proc) {
		// Node 9 does not exist; the switch should count a misroute.
		n.Send(p, &packet.Packet{Type: packet.WriteReq, Src: 0, Dst: 9})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Switches[0].Misroutes() != 1 {
		t.Fatalf("misroutes = %d, want 1", n.Switches[0].Misroutes())
	}
}

func TestNodeLinkAccessors(t *testing.T) {
	e := sim.NewEngine(1)
	n := BuildStar(OneEngine(e), 2, lcfg(), scfg())
	if n.NodeEgress(0) == nil || n.NodeIngress(1) == nil {
		t.Fatal("link accessors returned nil")
	}
	if _, ok := n.TryRecv(0, packet.VCRequest); ok {
		t.Fatal("TryRecv on idle network returned a packet")
	}
}

// TestBuildNames checks Build's name dispatch: every name builds the
// fabric Kind reports, "" is a star, and an unknown name or a pair
// without exactly two nodes is an error, not a panic.
func TestBuildNames(t *testing.T) {
	for _, name := range []string{"star", "chain", "tree", "torus2d", "torus3d", "fattree", "dragonfly", "dragonfly-val", ""} {
		cfg := params.Default(8)
		cfg.Topology = name
		n, err := Build(cfg, OneEngine(sim.NewEngine(1)))
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		want := name
		if name == "" {
			want = "star"
		}
		if n.Kind() != want || n.NumNodes() != 8 {
			t.Errorf("Build(%q) = %s over %d nodes, want %s over 8", name, n.Kind(), n.NumNodes(), want)
		}
	}
	cfg := params.Default(2)
	cfg.Topology = "pair"
	if n, err := Build(cfg, OneEngine(sim.NewEngine(1))); err != nil || n.Kind() != "pair" {
		t.Fatalf("Build(pair, 2 nodes) = %v, %v", n, err)
	}
	for _, bad := range []struct {
		topo  string
		nodes int
	}{{"pair", 3}, {"hypercube", 8}} {
		cfg := params.Default(bad.nodes)
		cfg.Topology = bad.topo
		if _, err := Build(cfg, OneEngine(sim.NewEngine(1))); err == nil {
			t.Errorf("Build(%q, %d nodes) returned no error", bad.topo, bad.nodes)
		}
	}
}
