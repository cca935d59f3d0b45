package experiments

import (
	"fmt"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/coherence"
	"telegraphos/internal/cpu"
	"telegraphos/internal/sim"
	"telegraphos/internal/stats"
)

// E4OwnerSerialization reproduces Figure 2: without an owner, concurrent
// multicast writers leave the copies of a page permanently divergent;
// with the owner-serialized reflected writes of §2.3.1 all copies
// converge.
func E4OwnerSerialization(o Options) *Result {
	// --- Ownerless: raw eager-update multicast, two concurrent writers.
	divergent := func() bool {
		c := lightCluster(o, 3)
		x := c.AllocShared(0, 8)
		off := c.SharedOffset(x)
		pn := addrspace.PageOf(off, c.PageSize())
		// Nodes 1 and 2 hold "copies" (their own shared page at the same
		// offset) and multicast their writes to everyone else.
		for _, w := range []int{1, 2} {
			var dests []addrspace.GPage
			for o := 0; o < 3; o++ {
				if o != w {
					dests = append(dests, addrspace.GPage{Node: addrspace.NodeID(o), Page: pn})
				}
			}
			if err := c.Nodes[w].HIB.MapMulticast(pn, dests...); err != nil {
				panic(err)
			}
			c.RemapShared(w, x, addrspace.NodeID(w)) // write the local copy
		}
		c.Spawn(1, "w1", func(ctx *cpu.Ctx) { ctx.Store(x, 1); ctx.Fence() })
		c.Spawn(2, "w2", func(ctx *cpu.Ctx) { ctx.Store(x, 2); ctx.Fence() })
		settle(c)
		v1 := c.Nodes[1].Mem.ReadWord(off)
		v2 := c.Nodes[2].Mem.ReadWord(off)
		return v1 != v2
	}()

	// --- Owner-serialized: the §2.3 update protocol, same scenario.
	converged := func() bool {
		c := lightCluster(o, 3)
		u := coherence.NewUpdate(c, coherence.CountersInfinite)
		x := c.AllocShared(0, 8)
		u.SharePage(x, 0, []int{0, 1, 2})
		off := c.SharedOffset(x)
		c.Spawn(1, "w1", func(ctx *cpu.Ctx) { ctx.Store(x, 1); ctx.Fence() })
		c.Spawn(2, "w2", func(ctx *cpu.Ctx) { ctx.Store(x, 2); ctx.Fence() })
		settle(c)
		v0 := c.Nodes[0].Mem.ReadWord(off)
		v1 := c.Nodes[1].Mem.ReadWord(off)
		v2 := c.Nodes[2].Mem.ReadWord(off)
		return v0 == v1 && v1 == v2
	}()

	return &Result{
		ID:       "E4",
		Title:    "Concurrent multicast writers: divergence without an owner",
		Artifact: "Figure 2 / §2.3.1",
		Rows: []Row{
			{Name: "Ownerless multicast", Paper: "copies end up with different values",
				Measured: fmt.Sprintf("divergent=%v", divergent), Match: divergent},
			{Name: "Owner-serialized updates", Paper: "all copies converge",
				Measured: fmt.Sprintf("converged=%v", converged), Match: converged},
		},
	}
}

// E5CounterAnomalies reproduces the §2.3.2 read-own-write anomalies and
// shows the §2.3.3 pending-write counters eliminate them, in all three
// counter configurations.
func E5CounterAnomalies(o Options) *Result {
	run := func(mode coherence.CounterMode) bool {
		c := lightCluster(o, 2)
		u := coherence.NewUpdate(c, mode)
		x := c.AllocShared(0, 8)
		u.SharePage(x, 0, []int{0, 1})
		sawStale := false
		c.Spawn(1, "writer", func(ctx *cpu.Ctx) {
			ctx.Store(x, 2)
			ctx.Store(x, 3)
			for i := 0; i < 40; i++ {
				if v := ctx.Load(x); v != 3 {
					sawStale = true
				}
				ctx.Compute(500 * sim.Nanosecond)
			}
		})
		settle(c)
		return sawStale
	}
	off := run(coherence.CountersOff)
	inf := run(coherence.CountersInfinite)
	cached := run(coherence.CountersCached)
	return &Result{
		ID:       "E5",
		Title:    "Pending-write counters eliminate reflected-write anomalies",
		Artifact: "§2.3.2–§2.3.3",
		Rows: []Row{
			{Name: "Counters off (Telegraphos I)", Paper: "chaotic writes may read stale own-write",
				Measured: fmt.Sprintf("stale-read=%v", off), Match: off},
			{Name: "Per-word counters", Paper: "no anomaly",
				Measured: fmt.Sprintf("stale-read=%v", inf), Match: !inf},
			{Name: "16-entry counter CAM", Paper: "no anomaly",
				Measured: fmt.Sprintf("stale-read=%v", cached), Match: !cached},
		},
	}
}

// E6CounterCacheSweep measures the §2.3.4 claim that a 16–32 entry CAM
// suffices: a chaotic multi-writer workload is run with CAM sizes 1..64
// and the stall rate and peak occupancy recorded.
func E6CounterCacheSweep(o Options) *Result {
	occSeries := stats.Series{Name: "E6: counter CAM behaviour vs size", XLabel: "cam_entries", YLabel: "stalls"}
	occ2 := stats.Series{Name: "E6: peak live counters vs CAM size", XLabel: "cam_entries", YLabel: "max_occupancy"}
	var stalls16, stalls32 int64
	for _, size := range []int{1, 2, 4, 8, 16, 32, 64} {
		c := lightClusterWithCAM(o, 3, size)
		u := coherence.NewUpdate(c, coherence.CountersCached)
		x := c.AllocShared(0, 4096)
		u.SharePage(x, 0, []int{0, 1, 2})
		for n := 1; n <= 2; n++ {
			n := n
			c.Spawn(n, "chaos", func(ctx *cpu.Ctx) {
				state := uint64(n) * 0x9E3779B97F4A7C15
				for i := 0; i < 150; i++ {
					state = state*6364136223846793005 + 1442695040888963407
					w := int(state>>33) % 64
					ctx.Store(streamVA(x, w), state)
					// An application does work between shared writes; the
					// CAM only needs to cover the writes genuinely in
					// flight (§2.3.4).
					ctx.Compute(4 * sim.Microsecond)
				}
				ctx.Fence()
			})
		}
		settle(c)
		var stalls int64
		maxOcc := 0
		for n := 1; n <= 2; n++ {
			cc := u.Mgr(n).Cache()
			stalls += cc.Stalls()
			maxOcc = max(maxOcc, cc.MaxOccupancy())
		}
		occSeries.Add(float64(size), float64(stalls))
		occ2.Add(float64(size), float64(maxOcc))
		if size == 16 {
			stalls16 = stalls
		}
		if size == 32 {
			stalls32 = stalls
		}
	}
	return &Result{
		ID:       "E6",
		Title:    "Counter-cache (CAM) sizing",
		Artifact: "§2.3.4 (\"16-32 entries will have enough space\")",
		Rows: []Row{
			{Name: "Stalls with 16-entry CAM", Paper: "≈ none",
				Measured: fmt.Sprintf("%d", stalls16), Match: stalls16 == 0},
			{Name: "Stalls with 32-entry CAM", Paper: "none",
				Measured: fmt.Sprintf("%d", stalls32), Match: stalls32 == 0},
		},
		Series: []stats.Series{occSeries, occ2},
	}
}

// E7FenceConsistency reproduces the §2.3.5 flag/data example: with a
// replicated data page whose owner is a third node, the consumer can see
// the flag before the data reflection arrives and read stale data;
// embedding FENCE in the release (UNLOCK) eliminates the stale read.
func E7FenceConsistency(o Options) *Result {
	run := func(useFence bool) int {
		c := lightCluster(o, 3)
		u := coherence.NewUpdate(c, coherence.CountersInfinite)
		data := c.AllocShared(2, 8) // replicated; owner far (node 2)
		u.SharePage(data, 2, []int{0, 1, 2})
		flag := c.AllocShared(1, 8) // plain word homed at the consumer
		stale := 0
		const iters = 10
		c.Spawn(0, "producer", func(ctx *cpu.Ctx) {
			for i := 1; i <= iters; i++ {
				ctx.Store(data, uint64(100+i))
				if useFence {
					ctx.Fence() // the UNLOCK of §2.3.5 embeds this
				}
				ctx.Store(flag, uint64(i))
				// Pace iterations so each round is independent.
				ctx.Compute(40 * sim.Microsecond)
			}
		})
		c.Spawn(1, "consumer", func(ctx *cpu.Ctx) {
			for i := 1; i <= iters; i++ {
				for ctx.Load(flag) < uint64(i) {
					ctx.Compute(500 * sim.Nanosecond)
				}
				if got := ctx.Load(data); got != uint64(100+i) {
					stale++
				}
			}
		})
		settle(c)
		return stale
	}
	without := run(false)
	with := run(true)
	return &Result{
		ID:       "E7",
		Title:    "FENCE prevents flag/data reordering",
		Artifact: "§2.3.5 memory-consistency example",
		Rows: []Row{
			{Name: "write(data); write(flag)", Paper: "consumer may read stale data",
				Measured: fmt.Sprintf("%d/10 stale reads", without), Match: without > 0},
			{Name: "write(data); FENCE; write(flag)", Paper: "never stale",
				Measured: fmt.Sprintf("%d/10 stale reads", with), Match: with == 0},
		},
	}
}

// E8GalacticaAnomaly reproduces §2.4: the ring-based Galactica protocol
// lets a third processor observe "1, 2, 1" — a sequence invalid under
// any consistency model — while the Telegraphos owner-based protocol
// only ever produces valid orders, across a sweep of writer offsets.
func E8GalacticaAnomaly(o Options) *Result {
	galACount := 0
	tgACount := 0
	const sweeps = 7
	for s := 0; s < sweeps; s++ {
		d := sim.Time(s) * 500 * sim.Nanosecond

		// Galactica ring: winner (node 1) -> observer (node 0) -> loser (node 2).
		cg := lightCluster(o, 3)
		g := coherence.NewGalactica(cg)
		xg := cg.AllocShared(0, 8)
		g.ShareRing(xg, []int{1, 0, 2})
		offg := cg.SharedOffset(xg)
		g.Mgr(0).Watch(offg)
		cg.Spawn(1, "w1", func(ctx *cpu.Ctx) { ctx.Store(xg, 1) })
		cg.Spawn(2, "w2", func(ctx *cpu.Ctx) { ctx.Compute(d); ctx.Store(xg, 2) })
		settle(cg)
		if hasABA(g.Mgr(0).AppliedValues(offg)) {
			galACount++
		}

		// Telegraphos update protocol, same scenario.
		ct := lightCluster(o, 3)
		u := coherence.NewUpdate(ct, coherence.CountersInfinite)
		xt := ct.AllocShared(0, 8)
		u.SharePage(xt, 0, []int{0, 1, 2})
		offt := ct.SharedOffset(xt)
		u.Mgr(0).Watch(offt)
		ct.Spawn(1, "w1", func(ctx *cpu.Ctx) { ctx.Store(xt, 1); ctx.Fence() })
		ct.Spawn(2, "w2", func(ctx *cpu.Ctx) { ctx.Compute(d); ctx.Store(xt, 2); ctx.Fence() })
		settle(ct)
		if hasABA(u.Mgr(0).AppliedValues(offt)) {
			tgACount++
		}
	}
	return &Result{
		ID:       "E8",
		Title:    "Galactica's \"1,2,1\" anomaly vs owner serialization",
		Artifact: "§2.4",
		Rows: []Row{
			{Name: "Galactica ring (7 timings)", Paper: "third processor may see 1,2,1",
				Measured: fmt.Sprintf("%d/%d runs showed it", galACount, sweeps), Match: galACount > 0},
			{Name: "Telegraphos protocol", Paper: "only {1},{2},{1,2},{2,1}",
				Measured: fmt.Sprintf("%d/%d invalid sequences", tgACount, sweeps), Match: tgACount == 0},
		},
	}
}

// hasABA reports whether vals contains the shape a...b...a (a != b).
func hasABA(vals []uint64) bool {
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			if vals[j] == vals[i] {
				continue
			}
			for k := j + 1; k < len(vals); k++ {
				if vals[k] == vals[i] {
					return true
				}
			}
		}
	}
	return false
}
