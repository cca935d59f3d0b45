package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"

	"telegraphos/internal/sim"
)

// tinyOps is the per-node program length the tests run at.
const tinyOps = 12

// inProcess runs jobs in the test process at the tiny size.
func inProcess(wl workload, seed int64) func(job) *runResult {
	return func(j job) *runResult {
		if j.pair {
			return pairRun(wl, seed, tinyOps)
		}
		return runOnce(wl, seed, j.shards, tinyOps, j.traced)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests compare with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSmoke runs every workload at a tiny size in both modes: the output
// check and the cross-shard comparison must pass, and the emitted
// metrics must be exactly the ones BENCHMARK.json declares, each with a
// well-formed name and the declared unit.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i, sw := range spec.Workloads {
		wl, ok := findWorkload(sw.Name)
		if !ok || workloads[i].name != sw.Name {
			t.Fatalf("BENCHMARK.json workload %q is not the benchmark's workload %d", sw.Name, i)
		}
		for _, traced := range []bool{false, true} {
			rep := bench(wl, traced, 0, inProcess(wl, 1))
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d/%d: %v", wl.name, traced, rep.Correct, rep.Failed, rep.Attempted, rep.Failures)
			}
			want := map[string]string{}
			for _, m := range spec.EndToEnd {
				if !traced {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range spec.PerLayer {
				if traced {
					want[m.Name] = m.Unit
				}
			}
			seen := map[string]bool{}
			for _, m := range rep.Metrics {
				if !name.MatchString(m.Name) {
					t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", wl.name, m.Name)
				}
				if seen[m.Name] {
					t.Errorf("%s: metric %q emitted twice", wl.name, m.Name)
				}
				seen[m.Name] = true
				if unit, ok := want[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %q [%s] is not declared in BENCHMARK.json with that unit", wl.name, traced, m.Name, m.Unit)
				}
			}
			if len(seen) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json declares %d", wl.name, traced, len(seen), len(want))
			}
		}
	}
}

// TestCountsRepeat: two same-seed runs execute the same events, rounds,
// packets and trace events, and reach the same trace hash.
func TestCountsRepeat(t *testing.T) {
	for _, wl := range workloads {
		a := runOnce(wl, 3, 2, tinyOps, true)
		b := runOnce(wl, 3, 2, tinyOps, true)
		if len(a.Failures) > 0 || len(b.Failures) > 0 {
			t.Fatalf("%s: %v %v", wl.name, a.Failures, b.Failures)
		}
		if a.Events != b.Events || a.SimNS != b.SimNS || a.TraceHash != b.TraceHash || a.TraceEvents != b.TraceEvents {
			t.Errorf("%s: runs differ: events %d/%d sim %d/%d hash %#x/%#x trace events %d/%d",
				wl.name, a.Events, b.Events, a.SimNS, b.SimNS, a.TraceHash, b.TraceHash, a.TraceEvents, b.TraceEvents)
		}
		if !sameMetrics(a.Counts, b.Counts) {
			t.Errorf("%s: per-layer counts differ:\n%v\n%v", wl.name, a.Counts, b.Counts)
		}
		for _, n := range []string{"sim.rounds", "sim.events_per_round", "sim.critpath_speedup"} {
			if x, y := find(a.Rounds, n), find(b.Rounds, n); x != y {
				t.Errorf("%s: %s differs: %v vs %v", wl.name, n, x, y)
			}
		}
		for _, n := range []string{"coherence.reflect_per_serialize", "trace.peak_resident", "linearize.peak_window", "linearize.violations"} {
			if x, y := find(a.Probes, n), find(b.Probes, n); x != y {
				t.Errorf("%s: %s differs: %v vs %v", wl.name, n, x, y)
			}
		}
		// The round probe's critical path is the engine's own.
		if got := float64(a.Events) / float64(a.CritPath); got != find(a.Rounds, "sim.critpath_speedup") {
			t.Errorf("%s: probe critical-path speedup %v, engine's %v", wl.name, find(a.Rounds, "sim.critpath_speedup"), got)
		}
	}
}

// TestSeedChangesInputs: another seed gives another run, so the
// benchmark's figures depend on the generated inputs. (Long enough for
// stream's seeded fence intervals to matter.)
func TestSeedChangesInputs(t *testing.T) {
	const ops = 160
	for _, wl := range workloads {
		a, b := runOnce(wl, 1, 1, ops, false), runOnce(wl, 2, 1, ops, false)
		if a.Events == b.Events && a.SimNS == b.SimNS && sameMetrics(a.Latency, b.Latency) {
			t.Errorf("%s: seeds 1 and 2 ran identically", wl.name)
		}
	}
}

// TestDivergenceDetected: a run whose simulated outcome differs from the
// reference fails, and so does the benchmark run holding it.
func TestDivergenceDetected(t *testing.T) {
	wl, _ := findWorkload("rpc")
	calls := 0
	rep := bench(wl, false, 0, func(j job) *runResult {
		r := runOnce(wl, 1, j.shards, tinyOps, false)
		calls++
		if calls == 3 {
			r.Events++
		}
		return r
	})
	if rep.Correct || rep.Failed == 0 || len(rep.Failures) != 1 {
		t.Fatalf("diverged run not reported: correct=%v failed=%d failures=%v", rep.Correct, rep.Failed, rep.Failures)
	}
}

func TestDerangement(t *testing.T) {
	rng := sim.ForkRNG(1, "perfbench/test")
	for trial := 0; trial < 50; trial++ {
		p := groupDerangement(rng, 10, 4)
		for g := 0; g < 10; g += 4 {
			var got []int
			for i := g; i < g+4 && i < 10; i++ {
				if p[i] == i || p[i]/4 != i/4 {
					t.Fatalf("node %d maps to %d", i, p[i])
				}
				got = append(got, p[i])
			}
			sort.Ints(got)
			for k := 1; k < len(got); k++ {
				if got[k] == got[k-1] {
					t.Fatalf("group %d maps two nodes to %d", g/4, got[k])
				}
			}
		}
	}
}

func TestCheckFetchInc(t *testing.T) {
	if err := checkFetchInc([]uint64{2, 0, 1}, 3); err != "" {
		t.Errorf("valid returns rejected: %s", err)
	}
	if err := checkFetchInc([]uint64{0, 0, 1}, 3); err == "" {
		t.Error("duplicate return value accepted")
	}
	if err := checkFetchInc([]uint64{0, 1}, 3); err == "" {
		t.Error("wrong final value accepted")
	}
}
