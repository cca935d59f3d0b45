package experiments

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// floorPath is where `make bench` records the gate (repo root, next to
// BENCH_pdes.json).
const floorPath = "../../BENCH_pdes.floor"

// BenchmarkPDESThroughputFloor is the CI throughput smoke scripts/check.sh
// runs (with -benchtime 3x): it replays the floor's workload single-shard
// and fails if the best iteration stays below the recorded floor after
// slow-host scaling. Regenerate the floor with `make bench` after an
// intentional performance change.
func BenchmarkPDESThroughputFloor(b *testing.B) {
	floor, err := ReadFloor(floorPath)
	if err != nil {
		if os.IsNotExist(err) {
			b.Skipf("no recorded floor at %s (run `make bench`)", floorPath)
		}
		b.Fatalf("reading floor: %v", err)
	}
	scaled := floor.Scaled(RefSpin())
	best := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := pdesRun(Options{Seed: 1}, floor.Nodes, floor.OpsPerNode)
		if evps := float64(r.events) / r.wall.Seconds(); evps > best {
			best = evps
		}
	}
	b.ReportMetric(best, "events/sec")
	if best < scaled {
		b.Fatalf("single-shard throughput regressed: best %.0f events/sec < floor %.0f (recorded %.0f, slow-host scaled)",
			best, scaled, floor.MinEventsPerSec)
	}
}

// BenchmarkPDESParallelEfficiency is the CI parallel-efficiency gate
// scripts/check.sh runs (with -benchtime 1x): it measures the workload
// at efficiencyNodes on 2 shards and as two 1-shard runs side by side,
// three times, and fails if the median efficiency is below the recorded
// floor.
// It skips on a host with fewer than 2 CPUs or GOMAXPROCS below 2, where
// two shards cannot run at once.
func BenchmarkPDESParallelEfficiency(b *testing.B) {
	floor, err := ReadFloor(floorPath)
	if err != nil {
		if os.IsNotExist(err) {
			b.Skipf("no recorded floor at %s (run `make bench`)", floorPath)
		}
		b.Fatalf("reading floor: %v", err)
	}
	if floor.MinParallelEfficiency == 0 {
		b.Skipf("no parallel-efficiency floor in %s (run `make bench`)", floorPath)
	}
	if cpus, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0); cpus < 2 || procs < 2 {
		b.Skipf("parallel-efficiency gate skipped: %d CPUs, GOMAXPROCS=%d (needs 2 of each)", cpus, procs)
	}
	var median float64
	var trials [3]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		median, trials = medianEfficiency(efficiencyNodes, floor.OpsPerNode)
	}
	b.ReportMetric(median, "efficiency")
	if median < floor.MinParallelEfficiency {
		b.Fatalf("2-shard parallel efficiency regressed: median of %.2f < floor %.2f",
			trials, floor.MinParallelEfficiency)
	}
	b.Logf("2-shard parallel efficiency: median of %.2f is %.2f (floor %.2f)", trials, median, floor.MinParallelEfficiency)
}

// TestFloorScaling pins the slow-host guard arithmetic.
func TestFloorScaling(t *testing.T) {
	f := &ThroughputFloor{MinEventsPerSec: 1000, RefSpinNS: 100}
	if got := f.Scaled(100 * time.Nanosecond); got != 1000 {
		t.Errorf("equal-speed host: floor %v, want 1000", got)
	}
	if got := f.Scaled(200 * time.Nanosecond); got != 500 {
		t.Errorf("half-speed host: floor %v, want 500", got)
	}
	if got := f.Scaled(50 * time.Nanosecond); got != 1000 {
		t.Errorf("faster host must not raise the floor: got %v, want 1000", got)
	}
	if got := (&ThroughputFloor{MinEventsPerSec: 7}).Scaled(0); got != 7 {
		t.Errorf("unset calibration falls back to the raw floor: got %v", got)
	}
}

// TestFloorRoundTrip pins the floor file format.
func TestFloorRoundTrip(t *testing.T) {
	path := t.TempDir() + "/floor.json"
	want := &ThroughputFloor{Nodes: 8, OpsPerNode: 1500, MinEventsPerSec: 2.5e6, RefSpinNS: 42, MinParallelEfficiency: 0.8, Note: "x"}
	if err := WriteFloor(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFloor(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}
