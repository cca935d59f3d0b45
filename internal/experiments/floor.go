package experiments

// The CI throughput floor: a regression gate recorded next to
// BENCH_pdes.json. When `make bench` regenerates the PDES report it also
// records a conservative single-shard events/sec floor plus a reference
// spin time for the recording host; scripts/check.sh replays a short
// benchmark and fails if throughput drops below the floor. The reference
// spin is the slow-CI-host guard: a host that runs the fixed CPU-bound
// reference slower than the recording host gets its floor scaled down
// proportionally, so the gate catches engine regressions, not slow
// hardware.
//
// The same file records a floor for the 2-shard parallel efficiency of
// the same workload (see PDESPoint.ParallelEfficiency). Efficiency is a
// ratio of two wall times on one host, so it needs no speed scaling; it
// needs two processors, and the gate skips on hosts with fewer.

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"telegraphos/internal/sim"
)

// ThroughputFloor is the recorded gate (serialized as BENCH_pdes.floor).
type ThroughputFloor struct {
	// Nodes and OpsPerNode pin the workload the floor was recorded on.
	Nodes      int `json:"nodes"`
	OpsPerNode int `json:"ops_per_node"`
	// MinEventsPerSec is the single-shard floor on the recording host.
	MinEventsPerSec float64 `json:"min_events_per_sec"`
	// RefSpinNS is RefSpin's duration on the recording host; check hosts
	// scale the floor by recorded/measured (clamped to 1).
	RefSpinNS int64 `json:"ref_spin_ns"`
	// MinParallelEfficiency is the floor for the median 2-shard parallel
	// efficiency of the workload at efficiencyNodes (0: no efficiency
	// gate).
	MinParallelEfficiency float64 `json:"min_parallel_efficiency,omitempty"`
	Note                  string  `json:"note"`
}

// floorFraction is the recorded floor as a fraction of the measured
// single-shard throughput: generous enough to absorb run-to-run noise
// and CI co-tenancy, tight enough that losing the zero-alloc hot path
// (which costs well over 2×) still trips the gate.
const floorFraction = 0.5

// efficiencyFloorFraction is the recorded efficiency floor as a fraction
// of the recording host's median 2-shard efficiency. On a 2-vCPU host
// persistent shard workers measured medians of 0.88–1.08 and spawning a
// goroutine per window per round 0.54–0.60, so 0.7 × a recorded ~1.0
// passes run-to-run noise and fails a return to spawning.
const efficiencyFloorFraction = 0.7

// refSpinIters sizes the reference workload (~tens of ms of pure
// splitmix64 arithmetic — long enough to be stable, short enough for CI).
const refSpinIters = 1 << 24

// RefSpin measures the fixed CPU-bound reference workload used to
// calibrate the floor across hosts.
func RefSpin() time.Duration {
	start := time.Now() //tgvet:allow walltime(host-speed calibration for the CI floor, not simulation state)
	r := sim.NewRNG(1)
	var acc uint64
	for i := 0; i < refSpinIters; i++ {
		acc += r.Uint64()
	}
	elapsed := time.Since(start) //tgvet:allow walltime(paired with the start stamp above)
	if acc == 0 {
		// acc is never 0 for this seed; the branch pins the loop as live.
		panic("experiments: reference spin folded away")
	}
	return elapsed
}

// FloorFor derives the floor from a freshly measured sweep: a fraction
// of the slowest single-shard cell, stamped with this host's reference
// spin, and a fraction of the 2-shard parallel efficiency at
// efficiencyNodes, measured afresh as the gate measures it.
func FloorFor(rep *PDESReport) *ThroughputFloor {
	slowest := 0.0
	nodes := 0
	for _, p := range rep.Points {
		if p.Shards != 1 {
			continue
		}
		if slowest == 0 || p.EventsPerSec < slowest {
			slowest = p.EventsPerSec
			nodes = p.Nodes
		}
	}
	eff, _ := medianEfficiency(efficiencyNodes, rep.OpsPerNode)
	return &ThroughputFloor{
		Nodes:                 nodes,
		OpsPerNode:            rep.OpsPerNode,
		MinEventsPerSec:       slowest * floorFraction,
		RefSpinNS:             RefSpin().Nanoseconds(),
		MinParallelEfficiency: eff * efficiencyFloorFraction,
		Note:                  "single-shard events/sec gate, scaled by ref_spin on slower hosts; 2-shard parallel-efficiency gate, median of 3, skipped below 2 CPUs (scripts/check.sh)",
	}
}

// efficiencyNodes is the node count of the parallel-efficiency gate: the
// sweep's largest cell, whose rounds are the widest (~842 events), so
// the gate measures the barrier hand-off rather than round overhead.
const efficiencyNodes = 64

// medianEfficiency measures the 2-shard parallel efficiency of the PDES
// workload three times (a 2-shard run, then two 1-shard runs side by
// side) and returns the median and the three trials in ascending order.
// One trial is a single pair of wall times and swings with the host's
// load; the median of three is what the gate and its floor compare.
func medianEfficiency(nodes, ops int) (median float64, trials [3]float64) {
	o := Options{Seed: 1, Shards: 2}
	for i := range trials {
		two := pdesRun(o, nodes, ops)
		trials[i] = pdesEfficiency(pdesPair(o, nodes, ops), two.wall)
	}
	sort.Float64s(trials[:])
	return trials[1], trials
}

// WriteFloor serializes the floor to path.
func WriteFloor(path string, f *ThroughputFloor) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644) //tgvet:allow tracesink(CI throughput-floor file: host-side bench artifact, not trace data)
}

// ReadFloor loads a recorded floor.
func ReadFloor(path string) (*ThroughputFloor, error) {
	data, err := os.ReadFile(path) //tgvet:allow tracesink(CI throughput-floor file: host-side bench artifact, not trace data)
	if err != nil {
		return nil, err
	}
	f := &ThroughputFloor{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, err
	}
	return f, nil
}

// Scaled reports the floor adjusted for the checking host: when the host
// runs the reference spin slower than the recording host, the floor
// drops proportionally; a faster host still checks the full floor.
func (f *ThroughputFloor) Scaled(refNow time.Duration) float64 {
	if f.RefSpinNS <= 0 || refNow <= 0 {
		return f.MinEventsPerSec
	}
	scale := float64(f.RefSpinNS) / float64(refNow.Nanoseconds())
	if scale > 1 {
		scale = 1
	}
	return f.MinEventsPerSec * scale
}
