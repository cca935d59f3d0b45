package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/linearize"
	"telegraphos/internal/params"
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// now reads the host clock. Every host-time figure of the benchmark is
// taken through it; none of them feeds simulation state.
func now() time.Time {
	return time.Now() //tgvet:allow walltime(the benchmark measures host time around calls into the simulator; the readings never reach simulation state)
}

// setup times the set-up calls into core: core.New and every Spawn.
type setup struct{ newNS, spawnNS int64 }

// setupTimes is one set-up's host time in ns: from core.New through the
// last Spawn, and the parts of it inside core.New and the Spawn calls.
type setupTimes struct {
	Total int64 `json:"total"`
	New   int64 `json:"new"`
	Spawn int64 `json:"spawn"`
}

// setupRepeats is the number of set-ups a run times after its measured
// run, in a process whose heap is already warm.
const setupRepeats = 7

// timeSetups builds wl n times and times each build. The clusters are
// never run: their parked processes keep them alive until the process
// exits, so a child process calls this after the run it measures.
func timeSetups(wl workload, seed int64, shards, opsPerNode, n int) []setupTimes {
	out := make([]setupTimes, n)
	for k := range out {
		var st setup
		runtime.GC()
		t0 := now()
		wl.build(seed, shards, opsPerNode, &st)
		out[k] = setupTimes{Total: now().Sub(t0).Nanoseconds(), New: st.newNS, Spawn: st.spawnNS}
	}
	return out
}

func (s *setup) newCluster(cfg params.Config) *core.Cluster {
	t0 := now()
	c := core.New(cfg)
	s.newNS += now().Sub(t0).Nanoseconds()
	return c
}

func (s *setup) spawn(c *core.Cluster, node int, prog func(*cpu.Ctx)) {
	t0 := now()
	c.Spawn(node, fmt.Sprintf("bench%d", node), prog)
	s.spawnNS += now().Sub(t0).Nanoseconds()
}

// metric is one named figure.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload string `json:"workload"`
	Shards   int    `json:"shards"`
	Traced   bool   `json:"traced"`
	// Setups are repeated set-ups of the same workload made after the
	// measured run; RunNS is the host time of Cluster.Run.
	Setups []setupTimes `json:"setups"`
	RunNS  int64        `json:"run_ns"`
	// Ops is the number of program ops completed.
	Ops      uint64 `json:"ops"`
	Events   uint64 `json:"events"`
	CritPath uint64 `json:"critpath"`
	SimNS    int64  `json:"sim_ns"`
	// TraceHash and TraceEvents fingerprint the streaming trace
	// (coherent only).
	TraceHash   uint64 `json:"trace_hash"`
	TraceEvents uint64 `json:"trace_events"`
	// HeapLive is the live Go heap after the run (the cluster still
	// held) and a forced collection; AllocBytes the bytes allocated
	// during Cluster.Run.
	HeapLive   uint64 `json:"heap_live"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// Latency holds simulated op latency percentiles in µs.
	Latency []metric `json:"latency"`
	// Counts are per-layer figures derived from the model's own
	// counters; they are deterministic and shard-invariant.
	Counts []metric `json:"counts"`
	// Rounds and Probes are figures only a traced run records:
	// barrier-round telemetry, and host time spent in the trace drain and
	// the online checker with tallies of the trace stream.
	Rounds   []metric `json:"rounds,omitempty"`
	Probes   []metric `json:"probes,omitempty"`
	Failures []string `json:"failures,omitempty"`
}

// runOnce builds workload wl at the given size and shard count, runs it
// to quiescence and checks its outputs. A traced run installs the
// benchmark's probes: a round hook recording per-round work and host
// time, and timing wrappers around the trace drain and the online
// checker.
func runOnce(wl workload, seed int64, shards, opsPerNode int, traced bool) *runResult {
	res := &runResult{Workload: wl.name, Shards: shards, Traced: traced}
	in := wl.build(seed, shards, opsPerNode, &setup{})
	res.Ops = in.ops

	var rp *roundProbe
	var ck *checkerProbe
	if in.olz != nil {
		if traced {
			ck = &checkerProbe{olz: in.olz}
			in.w.AddSink(ck)
		} else {
			in.w.AddSink(in.olz)
		}
	}
	if traced {
		rp = newRoundProbe(in.c.Group, in.w)
		in.c.Group.SetRoundHook(core.DefaultDrainEvery, rp.hook)
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	t0 := now()
	err := in.c.Run()
	res.RunNS = now().Sub(t0).Nanoseconds()
	if rp != nil {
		rp.close() // the last round ends with Run
	}
	runtime.ReadMemStats(&ms)
	res.AllocBytes = ms.TotalAlloc - allocBefore
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.HeapLive = ms.HeapAlloc

	g := in.c.Group
	res.Events, res.CritPath, res.SimNS = g.Executed(), g.CritPath(), int64(g.Now())
	switch {
	case errors.Is(err, sim.ErrStalled):
		res.Failures = append(res.Failures, fmt.Sprintf("%s: stalled: %v", wl.name, err))
	case err != nil:
		res.Failures = append(res.Failures, fmt.Sprintf("%s: run failed: %v", wl.name, err))
	case g.Pending() > 0:
		res.Failures = append(res.Failures, fmt.Sprintf("%s: %d events still pending after Run", wl.name, g.Pending()))
	}
	if in.w != nil {
		t0 = now()
		in.w.DrainAll()
		if rp != nil {
			rp.drainNS += now().Sub(t0).Nanoseconds()
		}
		res.TraceHash, res.TraceEvents = in.w.Hash(), in.w.Merged()
	}
	res.Latency = latencyMetrics(in.lat)
	// Counters first: the output check reads memory, which the memory
	// counters would see.
	res.Counts = layerCounts(in, res)
	if err == nil {
		res.Failures = append(res.Failures, in.check()...)
	}
	if traced {
		res.Rounds, res.Probes = rp.metrics(res.Events), probeMetrics(in, rp, ck)
	}
	return res
}

// pairRun runs two independent single-shard instances of wl side by
// side in this process and reports, as RunNS, the wall time until both
// finish: the parallelism the host offers two shards' worth of
// independent work.
func pairRun(wl workload, seed int64, opsPerNode int) *runResult {
	ins := [2]*instance{wl.build(seed, 1, opsPerNode, &setup{}), wl.build(seed, 1, opsPerNode, &setup{})}
	for _, in := range ins {
		if in.olz != nil {
			in.w.AddSink(in.olz)
		}
	}
	var errs [2]error
	var wg sync.WaitGroup
	t0 := now()
	for k, in := range ins {
		wg.Add(1)
		//tgvet:allow shardlocal(the ceiling measurement runs two independent clusters at once; they share no simulation state and are joined before any result is read)
		go func(k int, in *instance) {
			defer wg.Done()
			errs[k] = in.c.Run()
		}(k, in)
	}
	wg.Wait()
	res := &runResult{Workload: wl.name, Shards: 1, RunNS: now().Sub(t0).Nanoseconds()}
	for k, in := range ins {
		res.Ops += in.ops
		if errs[k] != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: side-by-side run %d: %v", wl.name, k, errs[k]))
			continue
		}
		if in.w != nil {
			in.w.DrainAll()
		}
		res.Failures = append(res.Failures, in.check()...)
	}
	return res
}

// latencyMetrics summarizes simulated op latency: the mean and p50/p99
// over every op, then p50/p99 per op kind.
func latencyMetrics(lat []nodeLat) []metric {
	var all []int64
	var byKind [numOpKinds][]int64
	for i := range lat {
		for k := range lat[i] {
			byKind[k] = append(byKind[k], lat[i][k]...)
			all = append(all, lat[i][k]...)
		}
	}
	var sum int64
	for _, v := range all {
		sum += v
	}
	out := append([]metric{{"sim_op_us.mean", float64(sum) / float64(max(len(all), 1)) / 1e3, "us"}},
		pctMetrics("cpu.sim_op_us", all)...)
	for k, v := range byKind {
		out = append(out, pctMetrics("cpu.sim_"+opKindNames[k]+"_us", v)...)
	}
	return out
}

func pctMetrics(name string, ns []int64) []metric {
	sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
	return []metric{
		{name + ".p50", quantile(ns, 0.50) / 1e3, "us"},
		{name + ".p99", quantile(ns, 0.99) / 1e3, "us"},
	}
}

// quantile returns the q-quantile of sorted samples by linear
// interpolation between closest ranks (0 for no samples).
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// layerCounts reads the model's own counters after a run, per layer,
// normalized by program ops where the figure is a rate.
func layerCounts(in *instance, res *runResult) []metric {
	c := in.c
	ops := float64(res.Ops)
	var txns, hibWrite, hibRead, hibMcast, hibFence, memAcc, tlbHit, tlbMiss int64
	var busy sim.Time
	for _, n := range c.Nodes {
		txns += n.Bus.Transactions()
		busy += n.Bus.BusyTime()
		hibWrite += n.HIB.Counters.Get("remote-write")
		hibRead += n.HIB.Counters.Get("remote-read")
		hibMcast += n.HIB.Counters.Get("multicast-write")
		hibFence += n.HIB.Counters.Get("fence")
		memAcc += n.Mem.Reads() + n.Mem.Writes()
		tlbHit += n.MMU.TLB.Hits()
		tlbMiss += n.MMU.TLB.Misses()
	}
	var pkts, words int64
	for _, l := range c.Net.Links() {
		pkts += l.SentPackets()
		words += l.SentWords()
	}
	var fwd, misroutes int64
	for _, s := range c.Net.Switches {
		fwd += s.Forwarded()
		misroutes += s.Misroutes()
	}
	faults := c.Net.FaultStats()
	util := 0.0
	if res.SimNS > 0 {
		util = float64(busy) / (float64(len(c.Nodes)) * float64(res.SimNS))
	}
	return []metric{
		{"sim.events_per_op", float64(res.Events) / ops, "events/op"},
		{"tchan.transactions_per_op", float64(txns) / ops, "1/op"},
		{"tchan.utilization", util, "ratio"},
		{"hib.remote-write_per_op", float64(hibWrite) / ops, "1/op"},
		{"hib.remote-read_per_op", float64(hibRead) / ops, "1/op"},
		{"hib.multicast-write_per_op", float64(hibMcast) / ops, "1/op"},
		{"hib.fence_per_op", float64(hibFence) / ops, "1/op"},
		{"link.packets_per_op", float64(pkts) / ops, "1/op"},
		{"link.words_per_op", float64(words) / ops, "1/op"},
		{"link.retransmits_per_op", float64(faults.Retransmits) / ops, "1/op"},
		{"link.deduped_per_op", float64(faults.Deduped) / ops, "1/op"},
		{"switchfab.forwarded_per_op", float64(fwd) / ops, "1/op"},
		{"switchfab.misroutes", float64(misroutes), "count"},
		{"mmu.tlb_miss_ratio", ratio(tlbMiss, tlbHit+tlbMiss), "ratio"},
		{"mem.accesses_per_op", float64(memAcc) / ops, "1/op"},
		{"trace.events_per_op", float64(res.TraceEvents) / ops, "1/op"},
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// roundProbe is a traced run's round hook. In a multi-shard group it
// fires at every barrier, so the per-shard Executed() deltas between two
// calls are one round's work; it also times the trace drain it performs
// in place of the cluster's own hook.
type roundProbe struct {
	g    *sim.Group
	w    *trace.WindowedLog
	last []uint64
	t    time.Time

	rounds, parallel, crit uint64
	roundNS                []float64
	drainNS                int64
}

func newRoundProbe(g *sim.Group, w *trace.WindowedLog) *roundProbe {
	return &roundProbe{g: g, w: w, last: make([]uint64, g.Shards()), t: now()}
}

func (p *roundProbe) hook(safe sim.Time) {
	p.close()
	if p.w != nil {
		t0 := now()
		p.w.Drain(int64(safe))
		p.drainNS += now().Sub(t0).Nanoseconds()
	}
	p.t = now()
}

// close attributes the work since the previous call to one round.
func (p *roundProbe) close() {
	var sum, max uint64
	active := 0
	for i := range p.last {
		ex := p.g.Shard(i).Executed()
		d := ex - p.last[i]
		p.last[i] = ex
		sum += d
		if d > max {
			max = d
		}
		if d > 0 {
			active++
		}
	}
	if sum == 0 {
		return
	}
	p.rounds++
	if active > 1 {
		p.parallel++
	}
	p.crit += max
	p.roundNS = append(p.roundNS, float64(now().Sub(p.t).Nanoseconds()))
}

// checkerProbe wraps the online checker as the trace sink, timing every
// call into it and tallying the coherence protocol's trace events.
type checkerProbe struct {
	olz         *linearize.Online
	ns          int64
	serialize   uint64
	reflectedTo uint64
}

func (p *checkerProbe) Append(e trace.Event) {
	switch e.Kind {
	case trace.EvUpdateSerialize:
		p.serialize++
	case trace.EvReflectApply:
		p.reflectedTo++
	}
	t0 := now()
	p.olz.Append(e)
	p.ns += now().Sub(t0).Nanoseconds()
}

func (p *checkerProbe) Advance(safe int64) {
	t0 := now()
	p.olz.Advance(safe)
	p.ns += now().Sub(t0).Nanoseconds()
}

// metrics renders the round telemetry of a run that executed events.
func (p *roundProbe) metrics(events uint64) []metric {
	sort.Float64s(p.roundNS)
	return []metric{
		{"sim.rounds", float64(p.rounds), "count"},
		{"sim.events_per_round", ratio(int64(events), int64(p.rounds)), "events"},
		{"sim.parallel_round_frac", ratio(int64(p.parallel), int64(p.rounds)), "ratio"},
		{"sim.critpath_speedup", ratio(int64(events), int64(p.crit)), "x"},
		{"sim.round_host_us.p50", quantile(p.roundNS, 0.50) / 1e3, "us"},
		{"sim.round_host_us.p99", quantile(p.roundNS, 0.99) / 1e3, "us"},
	}
}

// probeMetrics renders a traced run's trace and checker probe readings.
func probeMetrics(in *instance, rp *roundProbe, ck *checkerProbe) []metric {
	var lzNS int64
	var reflectPerSerialize float64
	var peakWindow, violations, peakResident float64
	if ck != nil {
		lzNS = ck.ns
		reflectPerSerialize = ratio(int64(ck.reflectedTo), int64(ck.serialize))
		peakWindow = float64(in.olz.Stats().PeakWindow)
		violations = float64(len(in.olz.Violations()) + len(in.olz.FenceViolations()))
	}
	if in.w != nil {
		peakResident = float64(in.w.MaxResident())
	}
	return []metric{
		{"coherence.reflect_per_serialize", reflectPerSerialize, "ratio"},
		{"trace.peak_resident", peakResident, "events"},
		{"trace.drain_host_ms", float64(rp.drainNS-lzNS) / 1e6, "ms"},
		{"linearize.host_ms", float64(lzNS) / 1e6, "ms"},
		{"linearize.peak_window", peakWindow, "ops"},
		{"linearize.violations", violations, "count"},
	}
}
