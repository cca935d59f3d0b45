package main

import (
	"fmt"
	"sort"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/coherence"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/linearize"
	"telegraphos/internal/link"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// workload builds one seeded cluster and its node programs. Every input
// a program sees (partners, targets, op mix, values) is drawn from
// sim.ForkRNG streams of the seed before the simulation starts.
type workload struct {
	name string
	// opsPerNode is the default program length (memory ops per node,
	// fences not included).
	opsPerNode int
	build      func(seed int64, shards, opsPerNode int, st *setup) *instance
}

var workloads = []workload{
	{name: "stream", opsPerNode: 1500, build: buildStream},
	{name: "rpc", opsPerNode: 300, build: buildRPC},
	{name: "coherent", opsPerNode: 400, build: buildCoherent},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Op kinds whose simulated latency is recorded.
const (
	opRead = iota
	opWrite
	opAtomic
	opFence
	numOpKinds
)

var opKindNames = [numOpKinds]string{"read", "write", "atomic", "fence"}

// nodeLat holds one node's simulated op latencies in ns. Only the node's
// own program appends to it, so shards never share an entry.
type nodeLat [numOpKinds][]int64

// timed runs op and records its simulated latency under kind.
func (l *nodeLat) timed(ctx *cpu.Ctx, kind int, op func()) {
	t0 := ctx.Now()
	op()
	l[kind] = append(l[kind], int64(ctx.Now()-t0))
}

// instance is one built workload, ready to run.
type instance struct {
	c   *core.Cluster
	ops uint64    // program ops the nodes execute (memory ops + fences)
	lat []nodeLat // per node
	// w and olz are the streaming trace and the online checker (coherent
	// only; nil elsewhere).
	w   *trace.WindowedLog
	olz *linearize.Online
	// check verifies the program outputs after quiescence and returns
	// one line per failed check.
	check func() []string
}

func newInstance(c *core.Cluster) *instance {
	return &instance{c: c, lat: make([]nodeLat, len(c.Nodes))}
}

// word reads the 8-byte word at shared address va from node's memory.
func (in *instance) word(node int, va addrspace.VAddr) uint64 {
	return in.c.Nodes[node].Mem.ReadWord(in.c.SharedOffset(va))
}

// buildStream is the 64-node campus cell of the PDES sweep: a chain of
// 4-port switches with 1 µs links, every node streaming non-blocking
// remote writes to a partner in its own switch group and fencing every
// 64 writes on average. The seed picks each group's partner
// derangement, each node's fence interval (48 to 80 writes) and the
// written values.
func buildStream(seed int64, shards, opsPerNode int, st *setup) *instance {
	const nodes, group = 64, 4
	cfg := params.Default(nodes)
	cfg.Seed = seed
	cfg.Sizing.MemBytes = 1 << 21
	cfg.Topology = "chain"
	cfg.ChainPerSwitch = group
	cfg.Link.PropDelay = 1 * sim.Microsecond
	cfg.Shards = shards
	in := newInstance(st.newCluster(cfg))
	c := in.c

	rng := sim.ForkRNG(uint64(seed), "perfbench/stream")
	partner := groupDerangement(rng, nodes, group)
	vas := make([]addrspace.VAddr, nodes)
	for i := range vas {
		vas[i] = c.AllocShared(c.Nodes[i].ID, 8)
	}
	base := make([]uint64, nodes)
	for i := 0; i < nodes; i++ {
		i, target := i, vas[partner[i]]
		base[i] = rng.Uint64() >> 8
		every := 48 + rng.Intn(33)
		in.ops += uint64(opsPerNode + opsPerNode/every + 1)
		st.spawn(c, i, func(ctx *cpu.Ctx) {
			l := &in.lat[i]
			for k := 1; k <= opsPerNode; k++ {
				v := base[i] + uint64(k)
				l.timed(ctx, opWrite, func() { ctx.Store(target, v) })
				if k%every == 0 {
					l.timed(ctx, opFence, ctx.Fence)
				}
			}
			l.timed(ctx, opFence, ctx.Fence)
		})
	}
	in.check = func() []string {
		var bad []string
		for i := 0; i < nodes; i++ {
			want := base[i] + uint64(opsPerNode)
			if got := in.word(partner[i], vas[partner[i]]); opsPerNode > 0 && got != want {
				bad = append(bad, fmt.Sprintf("stream: node %d's word holds %#x, want node %d's last write %#x", partner[i], got, i, want))
			}
		}
		return bad
	}
	return in
}

// groupDerangement maps every node to a distinct other node of its
// switch group (a random derangement per group).
func groupDerangement(rng *sim.RNG, nodes, group int) []int {
	partner := make([]int, nodes)
	for g := 0; g < nodes; g += group {
		n := group
		if g+n > nodes {
			n = nodes - g
		}
		perm := make([]int, n)
		for {
			for i := range perm {
				perm[i] = i
			}
			for i := n - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			fixed := false
			for i, p := range perm {
				fixed = fixed || (p == i && n > 1)
			}
			if !fixed {
				break
			}
		}
		for i, p := range perm {
			partner[g+i] = g + p
		}
	}
	return partner
}

// rpcWords is the number of read-only words each rpc node serves.
const rpcWords = 8

// rpcOp is one pre-drawn rpc operation: word 0 is a fetch&inc of the
// target's counter, words 1..rpcWords are blocking reads.
type rpcOp struct {
	target int
	word   int
}

// rpcFetch is one fetch&inc return value, kept for the output check.
type rpcFetch struct {
	target int
	val    uint64
}

// buildRPC: every node of a 64-node 2D torus issues blocking remote
// reads (80%) and fetch&incs (20%) to uniformly drawn remote nodes.
// Each op parks its process for a multi-hop round trip.
func buildRPC(seed int64, shards, opsPerNode int, st *setup) *instance {
	const nodes = 64
	cfg := params.Default(nodes)
	cfg.Seed = seed
	cfg.Sizing.MemBytes = 1 << 20
	cfg.Topology = "torus2d"
	cfg.Shards = shards
	in := newInstance(st.newCluster(cfg))
	c := in.c

	served := func(node, word int) uint64 {
		return uint64(seed)<<24 ^ uint64(node)<<8 ^ uint64(word) | 1<<63
	}
	vas := make([]addrspace.VAddr, nodes)
	for i := range vas {
		vas[i] = c.AllocShared(c.Nodes[i].ID, 8*(1+rpcWords))
		for w := 1; w <= rpcWords; w++ {
			c.Nodes[i].Mem.WriteWord(c.SharedOffset(vas[i])+8*uint64(w), served(i, w))
		}
	}
	progs := make([][]rpcOp, nodes)
	for i := range progs {
		rng := sim.ForkRNG(uint64(seed), fmt.Sprintf("perfbench/rpc/%d", i))
		progs[i] = make([]rpcOp, opsPerNode)
		for k := range progs[i] {
			t := rng.Intn(nodes - 1)
			if t >= i {
				t++
			}
			w := 0
			if !rng.Bool(0.2) {
				w = 1 + rng.Intn(rpcWords)
			}
			progs[i][k] = rpcOp{target: t, word: w}
		}
	}
	in.ops = uint64(nodes * opsPerNode)
	fetched := make([][]rpcFetch, nodes)
	misread := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		st.spawn(c, i, func(ctx *cpu.Ctx) {
			l := &in.lat[i]
			for _, op := range progs[i] {
				va := vas[op.target] + addrspace.VAddr(8*op.word)
				if op.word == 0 {
					var v uint64
					l.timed(ctx, opAtomic, func() { v = ctx.FetchAndInc(va) })
					fetched[i] = append(fetched[i], rpcFetch{op.target, v})
					continue
				}
				var v uint64
				l.timed(ctx, opRead, func() { v = ctx.Load(va) })
				if v != served(op.target, op.word) {
					misread[i]++
				}
			}
		})
	}
	in.check = func() []string {
		var bad []string
		perTarget := make([][]uint64, nodes)
		for i := range fetched {
			if misread[i] > 0 {
				bad = append(bad, fmt.Sprintf("rpc: node %d read %d wrong values", i, misread[i]))
			}
			for _, f := range fetched[i] {
				perTarget[f.target] = append(perTarget[f.target], f.val)
			}
		}
		for t, vals := range perTarget {
			if err := checkFetchInc(vals, in.word(t, vas[t])); err != "" {
				bad = append(bad, fmt.Sprintf("rpc: node %d counter: %s", t, err))
			}
		}
		return bad
	}
	return in
}

// checkFetchInc verifies exactly-once fetch&inc: the returned values are
// 0..n-1, each once, and the counter ends at n.
func checkFetchInc(vals []uint64, final uint64) string {
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	for k, v := range vals {
		if v != uint64(k) {
			return fmt.Sprintf("return values are not 0..%d (position %d holds %d)", len(vals)-1, k, v)
		}
	}
	if final != uint64(len(vals)) {
		return fmt.Sprintf("final value %d after %d increments", final, len(vals))
	}
	return ""
}

// Coherent-workload layout.
const (
	cohWords   = 4 // contended words on the replicated page
	plainWords = 4 // single-copy shared words
	fenceEvery = 32
)

// Coherent-workload op kinds, drawn with weights cohWeights.
const (
	cohStore = iota
	cohLoad
	plainStore
	plainLoad
	fetchInc
)

var cohWeights = []int{cohStore: 30, cohLoad: 20, plainStore: 20, plainLoad: 15, fetchInc: 15}

// cohOp is one pre-drawn coherent-workload op.
type cohOp struct {
	kind int
	word int
	val  uint64
}

// buildCoherent: a 16-node star under the update-coherence protocol
// (cached counters) with one page replicated on every node, plain
// single-copy words and a fetch&inc counter, over links that drop,
// duplicate and reorder frames. The streaming trace and the online
// linearizability/fence checker watch the single-copy words.
func buildCoherent(seed int64, shards, opsPerNode int, st *setup) *instance {
	const nodes = 16
	cfg := params.Default(nodes)
	cfg.Seed = seed
	cfg.Sizing.MemBytes = 1 << 20
	cfg.Shards = shards
	cfg.Link.Faults = &link.FaultPlan{Seed: seed, DropProb: 0.015, DupProb: 0.01, ReorderProb: 0.01}
	in := newInstance(st.newCluster(cfg))
	c := in.c

	layout := sim.ForkRNG(uint64(seed), "perfbench/coherent")
	all := make([]int, nodes)
	for i := range all {
		all[i] = i
	}
	// Three distinct nodes own the replicated page, home the plain words
	// and home the counter, so no node serves two hot spots.
	owner := layout.Intn(nodes)
	plainHome := (owner + 1 + layout.Intn(nodes-1)) % nodes
	atomHome := owner
	for atomHome == owner || atomHome == plainHome {
		atomHome = layout.Intn(nodes)
	}
	u := coherence.NewUpdate(c, coherence.CountersCached)
	cohVA := c.AllocShared(addrspace.NodeID(owner), c.PageSize())
	u.SharePage(cohVA, addrspace.NodeID(owner), all)
	plainVA := c.AllocShared(addrspace.NodeID(plainHome), 8*plainWords)
	atomVA := c.AllocShared(addrspace.NodeID(atomHome), 8)

	// The online checker covers the single-copy words; the replicated
	// page is checked for convergence after the run.
	locs := make(map[uint64]bool, plainWords+1)
	for w := 0; w < plainWords; w++ {
		locs[uint64(addrspace.NewGAddr(addrspace.NodeID(plainHome), c.SharedOffset(plainVA)+8*uint64(w)))] = true
	}
	locs[uint64(addrspace.NewGAddr(addrspace.NodeID(atomHome), c.SharedOffset(atomVA)))] = true
	in.w = trace.NewWindowedLog(nodes, 0)
	in.olz = linearize.NewOnline()
	in.olz.RestrictLocs(locs)
	c.AttachTrace(in.w)

	total := 0
	for _, w := range cohWeights {
		total += w
	}
	progs := make([][]cohOp, nodes)
	plainIssued := make(map[uint64]bool)
	incs := 0
	for i := range progs {
		rng := sim.ForkRNG(uint64(seed), fmt.Sprintf("perfbench/coherent/%d", i))
		seq := uint64(0)
		for k := 0; k < opsPerNode; k++ {
			pick, kind := rng.Intn(total), 0
			for pick >= cohWeights[kind] {
				pick -= cohWeights[kind]
				kind++
			}
			if kind == plainStore && i == plainHome {
				// A home-node store bypasses the packet path and the
				// event stream, so the home only reads the plain words.
				kind = plainLoad
			}
			op := cohOp{kind: kind}
			switch kind {
			case cohStore, cohLoad:
				op.word = rng.Intn(cohWords)
			case plainStore, plainLoad:
				op.word = rng.Intn(plainWords)
			case fetchInc:
				incs++
			}
			if kind == cohStore || kind == plainStore {
				seq++
				op.val = uint64(i+1)<<32 | seq
			}
			if kind == plainStore {
				plainIssued[op.val] = true
			}
			progs[i] = append(progs[i], op)
		}
	}
	fences := opsPerNode/fenceEvery + 1
	in.ops = uint64(nodes * (opsPerNode + fences))
	fetched := make([][]uint64, nodes)
	strays := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		st.spawn(c, i, func(ctx *cpu.Ctx) {
			l := &in.lat[i]
			for k, op := range progs[i] {
				var v uint64
				switch op.kind {
				case cohStore:
					l.timed(ctx, opWrite, func() { ctx.Store(cohVA+addrspace.VAddr(8*op.word), op.val) })
				case cohLoad:
					l.timed(ctx, opRead, func() { ctx.Load(cohVA + addrspace.VAddr(8*op.word)) })
				case plainStore:
					l.timed(ctx, opWrite, func() { ctx.Store(plainVA+addrspace.VAddr(8*op.word), op.val) })
				case plainLoad:
					l.timed(ctx, opRead, func() { v = ctx.Load(plainVA + addrspace.VAddr(8*op.word)) })
					if v != 0 && !plainIssued[v] {
						strays[i]++
					}
				case fetchInc:
					l.timed(ctx, opAtomic, func() { v = ctx.FetchAndInc(atomVA) })
					fetched[i] = append(fetched[i], v)
				}
				if k%fenceEvery == fenceEvery-1 {
					l.timed(ctx, opFence, ctx.Fence)
				}
			}
			l.timed(ctx, opFence, ctx.Fence)
		})
	}
	in.check = func() []string {
		var bad []string
		in.olz.Finish()
		for _, v := range in.olz.Violations() {
			bad = append(bad, "coherent: linearizability: "+v.Error())
		}
		for _, v := range in.olz.FenceViolations() {
			bad = append(bad, "coherent: fence: "+v.Error())
		}
		var vals []uint64
		for i := range fetched {
			if strays[i] > 0 {
				bad = append(bad, fmt.Sprintf("coherent: node %d read %d values no program wrote", i, strays[i]))
			}
			vals = append(vals, fetched[i]...)
		}
		if len(vals) != incs {
			bad = append(bad, fmt.Sprintf("coherent: %d fetch&incs returned, %d issued", len(vals), incs))
		}
		if err := checkFetchInc(vals, in.word(atomHome, atomVA)); err != "" {
			bad = append(bad, "coherent: counter: "+err)
		}
		for w := 0; w < cohWords; w++ {
			va := cohVA + addrspace.VAddr(8*w)
			want := in.word(owner, va)
			for i := 0; i < nodes; i++ {
				if got := in.word(i, va); got != want {
					bad = append(bad, fmt.Sprintf("coherent: replica on node %d holds %#x at word %d, owner holds %#x", i, got, w, want))
				}
			}
		}
		if n := c.Net.UnackedFrames(); n > 0 {
			bad = append(bad, fmt.Sprintf("coherent: %d ARQ frames unacknowledged after quiescence", n))
		}
		return bad
	}
	return in
}
