// Package topology assembles Telegraphos networks: node ports, switches,
// and the links between them, with deterministic routing tables.
//
// Build turns a configuration's topology name into a fabric. The fixed
// shapes mirror the configurations the paper discusses (Figure 1 shows
// workstations attached to switches that are chained by ribbon cables):
//
//   - pair: two nodes connected back-to-back (the §3.2 testbed);
//   - star: every node on one switch;
//   - chain: several switches in a line, k nodes per switch;
//   - tree: a radix-ary tree of switches, nodes at the leaves — the
//     natural fabric for in-network collectives at 64–1024 nodes.
//
// The generated shapes scale past them: the torus2d and torus3d k-ary
// n-cubes (torus.go), the k-ary fat-tree (fattree.go) and the dragonfly
// with minimal or Valiant routing (dragonfly.go).
//
// The fixed shapes are cycle-free, so the two virtual channels of the
// link layer already make them deadlock-free, and the fat-tree's
// up*/down* routes admit no cyclic dependency. The torus and the
// dragonfly do contain cycles; their routes break every channel
// dependency cycle with VC escape layers (dateline crossings, global-hop
// bumps). CheckDeadlockFree proves acyclicity for every built fabric
// rather than assuming it.
package topology

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/link"
	"telegraphos/internal/packet"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/switchfab"
)

// Network is a built fabric. Node i injects packets with Send and drains
// packets addressed to it with Recv.
type Network struct {
	toNet    []*link.Link // per node: node -> fabric
	fromNet  []*link.Link // per node: fabric -> node
	links    []*link.Link // every distinct link in the fabric (incl. trunks)
	Switches []*switchfab.Switch
	kind     string

	// Port adjacency, recorded by every builder: peers[s][p] names the
	// far end of switch s's port p. nodeSw/nodePort locate each node's
	// host port. The routing checkers (graph.go) and the spanning-tree
	// derivation walk this graph together with the switches' tables.
	peers    [][]portPeer
	nodeSw   []int
	nodePort []int
}

// portPeer describes the far end of one switch port: a host port
// (node >= 0) or a trunk to another switch's port.
type portPeer struct {
	node     int // attached node, or -1 for a trunk
	sw, port int // peer switch and port when node < 0
}

// setPeer records pp as the far end of switch s's port p.
func (n *Network) setPeer(s, p int, pp portPeer) {
	for len(n.peers[s]) <= p {
		n.peers[s] = append(n.peers[s], portPeer{node: -1, sw: -1, port: -1})
	}
	n.peers[s][p] = pp
}

// NumNodes reports the number of attached nodes.
func (n *Network) NumNodes() int { return len(n.toNet) }

// Kind names the topology: the name Build accepts ("pair", "star",
// "chain", "tree", "torus2d", "torus3d", "fattree", "dragonfly" or
// "dragonfly-val"); a torus built directly over n dimensions is
// "torus<n>d".
func (n *Network) Kind() string { return n.kind }

// Send injects pkt into the fabric at its source node. It blocks the
// calling process for injection-link credit and wire time.
func (n *Network) Send(p *sim.Proc, pkt *packet.Packet) {
	n.toNet[pkt.Src].Send(p, pkt)
}

// SendEv injects pkt at its source node from event context; onClear (may
// be nil) runs when the packet clears the injection wire. See
// link.Link.SendEv.
func (n *Network) SendEv(pkt *packet.Packet, onClear func()) {
	n.toNet[pkt.Src].SendEv(pkt, onClear)
}

// SetNotify registers fn to run whenever a packet addressed to node
// becomes available on vc; drain with TryRecv. See link.Link.SetNotify.
func (n *Network) SetNotify(node addrspace.NodeID, vc packet.VC, fn func()) {
	n.fromNet[node].SetNotify(vc, fn)
}

// Recv returns the next packet addressed to node on vc, blocking the
// calling process until one arrives.
func (n *Network) Recv(p *sim.Proc, node addrspace.NodeID, vc packet.VC) *packet.Packet {
	return n.fromNet[node].Recv(p, vc)
}

// TryRecv returns an already-arrived packet for node on vc, if any.
func (n *Network) TryRecv(node addrspace.NodeID, vc packet.VC) (*packet.Packet, bool) {
	return n.fromNet[node].TryRecv(vc)
}

// NodeEgress exposes node i's injection link (telemetry).
func (n *Network) NodeEgress(i addrspace.NodeID) *link.Link { return n.toNet[i] }

// NodeIngress exposes node i's delivery link (telemetry).
func (n *Network) NodeIngress(i addrspace.NodeID) *link.Link { return n.fromNet[i] }

// Links exposes every distinct link of the fabric, trunks included.
func (n *Network) Links() []*link.Link { return n.links }

// FaultStats aggregates fault-injection and ARQ-recovery counters over
// every distinct link of the fabric.
func (n *Network) FaultStats() link.FaultStats {
	var fs link.FaultStats
	for _, l := range n.links {
		fs.Add(l.FaultStats())
	}
	return fs
}

// UnackedFrames reports ARQ frames still awaiting acknowledgement across
// the whole fabric; a quiesced fabric must report zero.
func (n *Network) UnackedFrames() int {
	total := 0
	for _, l := range n.links {
		total += l.Unacked()
	}
	return total
}

// QueuedPackets reports delivered-but-unconsumed packets across the whole
// fabric (all links, both VCs); a quiesced fabric must report zero.
func (n *Network) QueuedPackets() int {
	total := 0
	for _, l := range n.links {
		for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
			total += l.Queued(vc)
		}
	}
	return total
}

// Place maps node i to the engine its link endpoints run on, so a
// topology can be spread across the shards of a sim.Group. Every switch
// runs on the engine of an anchor node its builder names: the first node
// of the subtree it serves (node 0 for a fat-tree core), clamped to the
// last node. Links whose two endpoints land on different engines become
// cross-shard links whose propagation delay is the group's lookahead.
type Place func(node int) *sim.Engine

// OneEngine places every node, and so every switch, on eng — the
// classic sequential layout.
func OneEngine(eng *sim.Engine) Place {
	return func(int) *sim.Engine { return eng }
}

// Build assembles the fabric cfg.Topology names ("" is a star) over
// cfg.Nodes nodes, placing node i on place(i). An unknown name, or a
// pair without exactly two nodes, is an error.
func Build(cfg params.Config, place Place) (*Network, error) {
	lc, sc := cfg.Link, cfg.Switch
	switch cfg.Topology {
	case "pair":
		if cfg.Nodes != 2 {
			return nil, fmt.Errorf("topology: pair requires exactly 2 nodes, got %d", cfg.Nodes)
		}
		return BuildPair(place, lc), nil
	case "star", "":
		return BuildStar(place, cfg.Nodes, lc, sc), nil
	case "chain":
		return BuildChain(place, cfg.Nodes, cfg.ChainPerSwitch, lc, sc), nil
	case "tree":
		return BuildTree(place, cfg.Nodes, cfg.TreeRadix, lc, sc), nil
	case "torus2d":
		return BuildTorus(place, TorusDims(cfg.Nodes, 2), lc, sc), nil
	case "torus3d":
		return BuildTorus(place, TorusDims(cfg.Nodes, 3), lc, sc), nil
	case "fattree":
		return BuildFatTree(place, cfg.Nodes, lc, sc), nil
	case "dragonfly":
		return BuildDragonfly(place, cfg.Nodes, false, lc, sc), nil
	case "dragonfly-val":
		return BuildDragonfly(place, cfg.Nodes, true, lc, sc), nil
	}
	return nil, fmt.Errorf("topology: unknown topology %q", cfg.Topology)
}

// builder is the state one Build* call shares while it wires a fabric.
type builder struct {
	n      *Network
	place  Place
	nnodes int
	lcfg   link.Config
	scfg   switchfab.Config
}

func newBuilder(kind string, place Place, nnodes int, lcfg link.Config, scfg switchfab.Config) *builder {
	return &builder{n: &Network{kind: kind}, place: place, nnodes: nnodes, lcfg: lcfg, scfg: scfg}
}

// addSwitch creates the next switch on the engine of node anchor
// (clamped to the last node).
func (b *builder) addSwitch(name string, anchor int) {
	sw := switchfab.New(b.place(min(anchor, b.nnodes-1)), name, b.scfg)
	b.n.Switches = append(b.n.Switches, sw)
	b.n.peers = append(b.n.peers, nil)
}

// host attaches node i to switch s with an injection and a delivery
// link. Nodes must be attached in ascending order.
func (b *builder) host(i, s int) {
	sw := b.n.Switches[s]
	ne, se := b.place(i), sw.Engine()
	up := link.NewCross(ne, se, fmt.Sprintf("n%d->%s", i, sw.Name()), b.lcfg)
	down := link.NewCross(se, ne, fmt.Sprintf("%s->n%d", sw.Name(), i), b.lcfg)
	p := sw.AttachPort(up, down)
	b.n.setPeer(s, p, portPeer{node: i, sw: -1, port: -1})
	b.n.nodeSw = append(b.n.nodeSw, s)
	b.n.nodePort = append(b.n.nodePort, p)
	b.n.toNet = append(b.n.toNet, up)
	b.n.fromNet = append(b.n.fromNet, down)
	b.n.links = append(b.n.links, up, down)
}

// trunk joins switches s1 and s2 with a bidirectional trunk whose link
// names carry suffix, and returns the port it takes on each.
func (b *builder) trunk(s1, s2 int, suffix string) (p1, p2 int) {
	sw1, sw2 := b.n.Switches[s1], b.n.Switches[s2]
	fwd := link.NewCross(sw1.Engine(), sw2.Engine(), sw1.Name()+"->"+sw2.Name()+suffix, b.lcfg)
	rev := link.NewCross(sw2.Engine(), sw1.Engine(), sw2.Name()+"->"+sw1.Name()+suffix, b.lcfg)
	p1 = sw1.AttachPort(rev, fwd)
	p2 = sw2.AttachPort(fwd, rev)
	b.n.setPeer(s1, p1, portPeer{node: -1, sw: s2, port: p2})
	b.n.setPeer(s2, p2, portPeer{node: -1, sw: s1, port: p1})
	b.n.links = append(b.n.links, fwd, rev)
	return p1, p2
}

// start starts every switch and returns the finished network.
func (b *builder) start() *Network {
	for _, sw := range b.n.Switches {
		sw.Start()
	}
	return b.n
}

// BuildPair connects exactly two nodes back-to-back with one link in each
// direction and no switch.
func BuildPair(place Place, lcfg link.Config) *Network {
	e0, e1 := place(0), place(1)
	ab := link.NewCross(e0, e1, "n0->n1", lcfg)
	ba := link.NewCross(e1, e0, "n1->n0", lcfg)
	return &Network{
		toNet:   []*link.Link{ab, ba},
		fromNet: []*link.Link{ba, ab},
		links:   []*link.Link{ab, ba},
		kind:    "pair",
	}
}

// BuildStar attaches nnodes nodes to a single switch.
func BuildStar(place Place, nnodes int, lcfg link.Config, scfg switchfab.Config) *Network {
	if nnodes < 1 {
		panic("topology: star needs at least one node")
	}
	b := newBuilder("star", place, nnodes, lcfg, scfg)
	b.addSwitch("sw0", 0)
	for i := 0; i < nnodes; i++ {
		b.host(i, 0)
		b.n.Switches[0].SetRoute(addrspace.NodeID(i), b.n.nodePort[i])
	}
	return b.start()
}

// BuildChain places nnodes nodes on a line of switches, perSwitch nodes
// per switch, with bidirectional trunk links between adjacent switches.
func BuildChain(place Place, nnodes, perSwitch int, lcfg link.Config, scfg switchfab.Config) *Network {
	if nnodes < 1 || perSwitch < 1 {
		panic("topology: chain needs nodes and perSwitch >= 1")
	}
	b := newBuilder("chain", place, nnodes, lcfg, scfg)
	nsw := (nnodes + perSwitch - 1) / perSwitch
	for s := 0; s < nsw; s++ {
		b.addSwitch(fmt.Sprintf("sw%d", s), s*perSwitch)
	}
	for i := 0; i < nnodes; i++ {
		b.host(i, i/perSwitch)
	}

	// Trunks between adjacent switches.
	rightPort := make([]int, nsw) // port on switch s leading to s+1
	leftPort := make([]int, nsw)  // port on switch s leading to s-1
	for s := 0; s < nsw-1; s++ {
		rightPort[s], leftPort[s+1] = b.trunk(s, s+1, "")
	}

	// Deterministic routing: local nodes to their port, everything else
	// down the line toward the destination's switch.
	for s, sw := range b.n.Switches {
		for i := 0; i < nnodes; i++ {
			dstSw := i / perSwitch
			switch {
			case dstSw == s:
				sw.SetRoute(addrspace.NodeID(i), b.n.nodePort[i])
			case dstSw > s:
				sw.SetRoute(addrspace.NodeID(i), rightPort[s])
			default:
				sw.SetRoute(addrspace.NodeID(i), leftPort[s])
			}
		}
	}
	return b.start()
}

// treeLevels reports the per-level switch counts of a radix-ary tree
// over nnodes nodes: leaves first, one root switch last.
func treeLevels(nnodes, radix int) []int {
	counts := []int{(nnodes + radix - 1) / radix}
	for counts[len(counts)-1] > 1 {
		prev := counts[len(counts)-1]
		counts = append(counts, (prev+radix-1)/radix)
	}
	return counts
}

// BuildTree places nnodes nodes at the leaves of a radix-ary tree of
// switches: ceil(n/radix) leaf switches with radix nodes each, then
// levels of ceil(prev/radix) switches until a single root switch. With
// radix 4 a 1024-node fabric is 5 switch levels deep, so collective
// traffic crosses O(log N) hops instead of the chain's O(N). Switches
// are numbered level-major (all leaves first, root last), and each runs
// with the first node of its subtree.
func BuildTree(place Place, nnodes, radix int, lcfg link.Config, scfg switchfab.Config) *Network {
	if nnodes < 1 || radix < 2 {
		panic("topology: tree needs nodes >= 1 and radix >= 2")
	}
	b := newBuilder("tree", place, nnodes, lcfg, scfg)
	counts := treeLevels(nnodes, radix)
	nlv := len(counts)
	levelBase := make([]int, nlv) // global switch index of (l, 0)
	span := radix                 // nodes covered per switch at the current level
	for l := 0; l < nlv; l++ {
		levelBase[l] = len(b.n.Switches)
		for i := 0; i < counts[l]; i++ {
			b.addSwitch(fmt.Sprintf("sw%d.%d", l, i), i*span)
		}
		span *= radix
	}
	for i := 0; i < nnodes; i++ {
		b.host(i, i/radix)
	}

	// Trunks: child (l, c) to parent (l+1, c/radix).
	upPort := make([][]int, nlv)   // child's port toward its parent
	downPort := make([][]int, nlv) // parent's port toward child c, indexed by c
	for l := 0; l < nlv-1; l++ {
		upPort[l] = make([]int, counts[l])
		downPort[l] = make([]int, counts[l])
		for c := 0; c < counts[l]; c++ {
			upPort[l][c], downPort[l][c] = b.trunk(levelBase[l]+c, levelBase[l+1]+c/radix, "")
		}
	}

	// Deterministic routing: down toward the child subtree that covers
	// the destination, else up toward the root.
	span = radix
	for l := 0; l < nlv; l++ {
		for s := 0; s < counts[l]; s++ {
			sw := b.n.Switches[levelBase[l]+s]
			lo, hi := s*span, (s+1)*span
			for i := 0; i < nnodes; i++ {
				switch {
				case i >= lo && i < hi && l == 0:
					sw.SetRoute(addrspace.NodeID(i), b.n.nodePort[i])
				case i >= lo && i < hi:
					child := i / (span / radix)
					sw.SetRoute(addrspace.NodeID(i), downPort[l-1][child])
				default:
					sw.SetRoute(addrspace.NodeID(i), upPort[l][s])
				}
			}
		}
		span *= radix
	}
	return b.start()
}

// SwitchTree pairs a switch with its role in one collective spanning
// tree (see Network.SpanningTree).
type SwitchTree struct {
	Switch *switchfab.Switch
	Plan   switchfab.TreePlan
}

// SpanningTree derives each switch's role in the collective spanning
// tree for root and participants by walking every participant's routed
// path to the root: deterministic destination routing makes the union
// of those paths an in-tree rooted at the root's host port, on cyclic
// topologies (torus, dragonfly) just as on the tree shapes. A switch's
// subtree is the set of participants whose path traverses it; each leg
// is the in-port their arrivals (host injections or a child switch's
// combined arrival) physically enter on. Switches on no path are
// omitted — no collective traffic can reach them. The construction is
// deterministic: legs come out in ascending port order and
// representatives are the smallest participant behind each port.
func (n *Network) SpanningTree(root addrspace.NodeID, participants []addrspace.NodeID) []SwitchTree {
	if len(n.Switches) == 0 {
		return nil
	}
	type acc struct {
		up     int
		expect int
		rep    int
		legRep []int // smallest participant arriving on each in-port (-1: none)
	}
	accs := make([]*acc, len(n.Switches))
	for _, p := range participants {
		if p == root {
			continue
		}
		hops, err := n.Walk(p, root)
		if err != nil {
			panic(fmt.Sprintf("topology: no routed path from participant %v to collective root %v: %v", p, root, err))
		}
		for _, h := range hops {
			a := accs[h.Sw]
			if a == nil {
				a = &acc{up: h.OutPort, rep: -1, legRep: make([]int, n.Switches[h.Sw].NumPorts())}
				for i := range a.legRep {
					a.legRep[i] = -1
				}
				accs[h.Sw] = a
			}
			a.expect++
			if a.legRep[h.InPort] < 0 || int(p) < a.legRep[h.InPort] {
				a.legRep[h.InPort] = int(p)
			}
			if a.rep < 0 || int(p) < a.rep {
				a.rep = int(p)
			}
		}
	}
	var out []SwitchTree
	for s, a := range accs {
		if a == nil {
			continue
		}
		plan := switchfab.TreePlan{UpPort: a.up, Expect: a.expect, Rep: addrspace.NodeID(a.rep)}
		for port, r := range a.legRep {
			if r >= 0 {
				plan.Legs = append(plan.Legs, switchfab.DownLeg{Port: port, Rep: addrspace.NodeID(r)})
			}
		}
		out = append(out, SwitchTree{Switch: n.Switches[s], Plan: plan})
	}
	return out
}
