package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"telegraphos/internal/addrspace"
	"telegraphos/internal/core"
	"telegraphos/internal/cpu"
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// The PDES scaling benchmark: a node-count × shard-count sweep over one
// fixed cluster workload, measuring how the sharded conservative engine
// scales. For every cell it reports wall-clock time, executed work items
// per second, and two speedups against the single-shard engine on the
// same workload:
//
//   - wall: measured wall-clock ratio — what this machine's cores
//     actually deliver;
//   - critical path: executed work divided by the round-structured
//     critical path (the busiest shard's work summed over barrier
//     rounds) — what an ideal machine with one core per shard and free
//     barriers would deliver. It is hardware-independent and isolates
//     the quality of the decomposition (lookahead width, load balance)
//     from the host's core count.
//
// The workload is a "campus" configuration: a chain of 4-port switches
// (the paper's multi-hop Telegraphos fabric) with 1 µs propagation
// links — longer runs than the 10 ns lab bench, and exactly the regime
// where conservative windows are wide enough to amortize barriers. Every
// node streams remote writes to its neighbor inside its own switch
// group with periodic fences, so traffic is mostly shard-local and the
// trunk links between switch groups carry the cross-shard coupling.
//
// Each multi-shard cell also reports the group's barrier rounds, and each
// 2-shard cell the host's own ceiling for two shards: two single-shard
// runs side by side in this process. The parallel efficiency is the wall
// speedup divided by that ceiling, so it reads the engine against what
// the host offers rather than against a core count.

// PDESPoint is one cell of the sweep.
type PDESPoint struct {
	Nodes        int     `json:"nodes"`
	Shards       int     `json:"shards"`
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	SimMicros    float64 `json:"sim_us"`
	// SpeedupWall is wall(1 shard)/wall(this) for the same node count.
	SpeedupWall float64 `json:"speedup_wall"`
	// SpeedupCritPath is events/critical-path for this cell.
	SpeedupCritPath float64 `json:"speedup_critical_path"`
	// Rounds and ParallelRounds are the group's barrier rounds and those
	// of them that ran on the shard workers (zero for one shard), and
	// EventsPerRound is Events/Rounds.
	Rounds         uint64  `json:"rounds"`
	ParallelRounds uint64  `json:"parallel_rounds"`
	EventsPerRound float64 `json:"events_per_round,omitempty"`
	// CeilingSpeedup and ParallelEfficiency are set on 2-shard cells:
	// the ceiling is 2 × wall(1 shard) ÷ the wall time of two 1-shard
	// runs side by side, and the efficiency is the wall speedup over
	// that ceiling, taken as pair wall ÷ (2 × this cell's wall) so it
	// does not depend on the separate 1-shard cell.
	CeilingSpeedup     float64 `json:"ceiling_speedup,omitempty"`
	ParallelEfficiency float64 `json:"parallel_efficiency,omitempty"`
	// TraceHash and the residency fields are populated only when the
	// sweep runs with a trace window (tgbench -trace-window); the hash is
	// shard-invariant and TracePeak stays O(window), not O(TraceEvents).
	TraceHash   uint64 `json:"trace_hash,omitempty"`
	TraceEvents uint64 `json:"trace_events,omitempty"`
	TracePeak   int    `json:"trace_peak_resident,omitempty"`
}

// PDESReport is the full sweep, annotated with the host's parallelism so
// wall-clock numbers can be read in context.
type PDESReport struct {
	CPUs       int         `json:"cpus"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	OpsPerNode int         `json:"ops_per_node"`
	Points     []PDESPoint `json:"points"`
}

// PDESOps is the default per-node remote-write count for the sweep.
const PDESOps = 1500

// pdesCluster builds the campus-configuration cluster for the bench.
func pdesCluster(o Options, nodes int) *core.Cluster {
	cfg := o.config(nodes)
	cfg.Sizing.MemBytes = 1 << 21
	cfg.Topology = "chain"
	cfg.ChainPerSwitch = 4
	cfg.Link.PropDelay = 1 * sim.Microsecond
	return core.New(cfg)
}

// pdesTrace is the per-cell streaming trace measurement (zero when the
// sweep runs untraced).
type pdesTrace struct {
	hash   uint64
	events uint64
	peak   int
}

// pdesResult is one run of the workload.
type pdesResult struct {
	wall                   time.Duration
	events, critPath       uint64
	rounds, parallelRounds uint64
	simTime                sim.Time
	trace                  pdesTrace
}

// pdesInstance is a built, not yet run, copy of the workload.
type pdesInstance struct {
	c *core.Cluster
	w *trace.WindowedLog
}

// pdesBuild builds the workload on nodes×o.Shards.
func pdesBuild(o Options, nodes, ops int) *pdesInstance {
	c := pdesCluster(o, nodes)
	in := &pdesInstance{c: c}
	if o.TraceWindow > 0 {
		in.w = trace.NewWindowedLog(nodes, o.TraceWindow)
		c.AttachTrace(in.w)
	}
	group := c.Cfg.ChainPerSwitch
	// One shared word homed on every node; node i streams writes to the
	// next node in its own switch group (wrapping inside the group).
	vas := make([]addrspace.VAddr, nodes)
	for i := 0; i < nodes; i++ {
		vas[i] = c.AllocShared(c.Nodes[i].ID, 8)
	}
	for i := 0; i < nodes; i++ {
		i := i
		partner := (i/group)*group + (i+1)%group
		if partner >= nodes {
			partner = (i / group) * group
		}
		target := vas[partner]
		c.Spawn(i, fmt.Sprintf("pdes%d", i), func(ctx *cpu.Ctx) {
			for k := 0; k < ops; k++ {
				ctx.Store(target, uint64(k+1))
				if k%64 == 63 {
					ctx.Fence()
				}
			}
			ctx.Fence()
		})
	}
	return in
}

// run drives the instance to completion and reports its wall time.
func (in *pdesInstance) run() time.Duration {
	start := time.Now() //tgvet:allow walltime(PDES bench measures real host wall-clock, not simulated time)
	if err := in.c.Run(); err != nil {
		panic(err)
	}
	return time.Since(start) //tgvet:allow walltime(host-side wall-clock measurement paired with the start stamp above)
}

// pdesRun executes the workload on nodes×o.Shards and reports wall
// time, executed work, critical path, rounds, and final simulated time.
func pdesRun(o Options, nodes, ops int) pdesResult {
	in := pdesBuild(o, nodes, ops)
	r := pdesResult{wall: in.run()}
	if in.w != nil {
		in.w.DrainAll()
		r.trace = pdesTrace{hash: in.w.Hash(), events: in.w.Merged(), peak: in.w.MaxResident()}
	}
	g := in.c.Group
	r.events, r.critPath, r.simTime = g.Executed(), g.CritPath(), g.Now()
	r.rounds, r.parallelRounds = g.Rounds()
	return r
}

// pdesPair runs two single-shard copies of the workload side by side and
// reports the wall time until both finish: the parallelism the host
// offers two shards' worth of independent work. Both are built before
// the clock starts.
func pdesPair(o Options, nodes, ops int) time.Duration {
	o.Shards = 1
	ins := [2]*pdesInstance{pdesBuild(o, nodes, ops), pdesBuild(o, nodes, ops)}
	var wg sync.WaitGroup
	start := time.Now() //tgvet:allow walltime(the ceiling is measured in host wall-clock, not simulated time)
	for _, in := range ins {
		wg.Add(1)
		//tgvet:allow shardlocal(the ceiling measurement runs two independent clusters at once; they share no simulation state and are joined before any result is read)
		go func(in *pdesInstance) {
			defer wg.Done()
			in.run()
		}(in)
	}
	wg.Wait()
	return time.Since(start) //tgvet:allow walltime(paired with the start stamp above)
}

// pdesEfficiency is the parallel efficiency of a 2-shard run that took
// wall2 against pair, the wall time of two 1-shard runs side by side:
// pair ÷ (2 × wall2).
func pdesEfficiency(pair, wall2 time.Duration) float64 {
	return float64(pair) / (2 * float64(wall2))
}

// PDESSweep runs the node-count × shard-count grid. Within one node
// count every shard count must execute identical work and reach the
// identical final simulated time (the determinism contract); the sweep
// panics if they diverge. The options' shard count is ignored: the
// sweep runs every count in shardList.
func PDESSweep(o Options, nodeCounts, shardList []int, ops int) *PDESReport {
	rep := &PDESReport{
		CPUs:       runtime.NumCPU(),      //tgvet:allow taint(host metadata for the report banner; never feeds simulation state)
		GOMAXPROCS: runtime.GOMAXPROCS(0), //tgvet:allow taint(host metadata for the report banner; never feeds simulation state)
		OpsPerNode: ops,
	}
	// ceiling is a 2-shard cell waiting for its side-by-side pair.
	type ceiling struct {
		point        int
		wall1, wall2 time.Duration
	}
	var ceilings []ceiling
	for _, n := range nodeCounts {
		var base pdesResult
		for _, s := range shardList {
			if s > n {
				continue
			}
			o.Shards = s
			r := pdesRun(o, n, ops)
			if s == shardList[0] {
				base = r
			} else if r.events != base.events || r.simTime != base.simTime {
				panic(fmt.Sprintf("pdes: %d nodes: shards=%d executed (%d items, %v) but shards=%d executed (%d items, %v)",
					n, shardList[0], base.events, base.simTime, s, r.events, r.simTime))
			} else if r.trace.hash != base.trace.hash || r.trace.events != base.trace.events {
				panic(fmt.Sprintf("pdes: %d nodes: trace fingerprint diverged across shards (%d shards: hash %#x over %d events; %d shards: hash %#x over %d events)",
					n, shardList[0], base.trace.hash, base.trace.events, s, r.trace.hash, r.trace.events))
			}
			p := PDESPoint{
				Nodes:           n,
				Shards:          s,
				WallMS:          float64(r.wall.Microseconds()) / 1e3,
				Events:          r.events,
				EventsPerSec:    float64(r.events) / r.wall.Seconds(),
				SimMicros:       r.simTime.Micros(),
				SpeedupWall:     float64(base.wall) / float64(r.wall),
				SpeedupCritPath: float64(r.events) / float64(r.critPath),
				Rounds:          r.rounds,
				ParallelRounds:  r.parallelRounds,
				TraceHash:       r.trace.hash,
				TraceEvents:     r.trace.events,
				TracePeak:       r.trace.peak,
			}
			if r.rounds > 0 {
				p.EventsPerRound = float64(r.events) / float64(r.rounds)
			}
			if s == 2 {
				ceilings = append(ceilings, ceiling{len(rep.Points), base.wall, r.wall})
			}
			rep.Points = append(rep.Points, p)
		}
	}
	// The side-by-side pairs run after every cell, so the cells run in
	// the same order and process state as a sweep without them.
	for _, c := range ceilings {
		p := &rep.Points[c.point]
		pair := pdesPair(o, p.Nodes, ops)
		p.CeilingSpeedup = 2 * float64(c.wall1) / float64(pair)
		p.ParallelEfficiency = pdesEfficiency(pair, c.wall2)
	}
	return rep
}

// WritePDESJSON serializes the report (stable field order, indented).
func WritePDESJSON(w io.Writer, rep *PDESReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// FormatPDES renders the sweep as an aligned text table.
func FormatPDES(rep *PDESReport) string {
	out := fmt.Sprintf("PDES scaling sweep (%d CPUs, GOMAXPROCS=%d, %d ops/node)\n",
		rep.CPUs, rep.GOMAXPROCS, rep.OpsPerNode)
	out += fmt.Sprintf("%6s %7s %10s %14s %10s %12s %10s %8s %8s %10s\n",
		"nodes", "shards", "wall_ms", "events/s", "sim_us", "speedup", "critpath", "rounds", "par", "ev/round")
	for _, p := range rep.Points {
		out += fmt.Sprintf("%6d %7d %10.1f %14.0f %10.0f %11.2fx %9.2fx %8d %8d %10.1f\n",
			p.Nodes, p.Shards, p.WallMS, p.EventsPerSec, p.SimMicros, p.SpeedupWall, p.SpeedupCritPath,
			p.Rounds, p.ParallelRounds, p.EventsPerRound)
	}
	for _, p := range rep.Points {
		if p.ParallelEfficiency > 0 {
			out += fmt.Sprintf("  ceiling %d×2: two 1-shard runs side by side give %.2fx; parallel efficiency %.2f\n",
				p.Nodes, p.CeilingSpeedup, p.ParallelEfficiency)
		}
	}
	for _, p := range rep.Points {
		if p.TraceEvents > 0 {
			out += fmt.Sprintf("  trace %d×%d: %d events, hash %#016x, peak resident %d (window-bounded)\n",
				p.Nodes, p.Shards, p.TraceEvents, p.TraceHash, p.TracePeak)
		}
	}
	return out
}
