package simtest

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"telegraphos/internal/linearize"
	"telegraphos/internal/trace"
)

// seedFlag replays one specific scenario: the reproducer printed for any
// failing seed is `go test ./internal/simtest -run TestSimChaos -seed=N`.
var seedFlag = flag.Int64("seed", -1, "replay a single chaos seed instead of the sweep")

// update rewrites the golden files under testdata from this build.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// chaosSeeds is the tier-1 sweep: 50 seeded scenarios, faults on.
const chaosSeeds = 50

// runSeed executes one scenario and fails the test on any violation.
func runSeed(t *testing.T, seed int64, opts Options) *Result {
	t.Helper()
	res, err := Run(seed, opts)
	if err != nil {
		t.Fatalf("seed %d: harness error: %v", seed, err)
	}
	if res.Failed() {
		var b strings.Builder
		for _, v := range res.Violations {
			b.WriteString("\n  ")
			b.WriteString(v.String())
		}
		t.Errorf("seed %d violated %d invariants (%s):%s\n  reproduce: %s",
			seed, len(res.Violations), res.Scenario.String(), b.String(), Reproducer(seed))
	}
	return res
}

// TestSimChaos sweeps seeded chaos scenarios — random cluster shapes,
// random workloads, link faults on every scenario — and requires every
// invariant to hold on each. With -seed=N it replays just that seed.
func TestSimChaos(t *testing.T) {
	if *seedFlag >= 0 {
		res := runSeed(t, *seedFlag, Options{})
		t.Logf("seed %d: %s", *seedFlag, res.Scenario.String())
		t.Logf("trace hash %#016x over %d events, %v simulated, faults: %+v",
			res.TraceHash, res.Events, res.SimTime, res.FaultStats)
		return
	}
	for seed := int64(0); seed < chaosSeeds; seed++ {
		res := runSeed(t, seed, Options{})
		if t.Failed() {
			return
		}
		if res.Scenario.Faults != nil && res.FaultStats.Total() == 0 && res.Events > 0 {
			t.Errorf("seed %d: fault plan active but no faults fired (%s)", seed, res.Scenario.String())
		}
	}
}

// TestSimChaosClean runs a handful of fault-free control scenarios: the
// invariants must hold on a clean network too.
func TestSimChaosClean(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		runSeed(t, seed, Options{NoFaults: true})
	}
}

// TestSimDeterminism runs the same seeds twice and requires byte-identical
// trace hashes — the property that makes every failure reproducible.
func TestSimDeterminism(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		a, err := Run(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Run(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.TraceHash != b.TraceHash || a.Events != b.Events || a.SimTime != b.SimTime {
			t.Errorf("seed %d is not deterministic: run1 (hash %#x, %d events, %v) vs run2 (hash %#x, %d events, %v)",
				seed, a.TraceHash, a.Events, a.SimTime, b.TraceHash, b.Events, b.SimTime)
		}
		if a.Events == 0 {
			t.Errorf("seed %d recorded no events", seed)
		}
	}
}

// chaosGolden pins the chaos fingerprints across commits: one line per
// (seed, faults) pair of TestShardInvariantTraceHash.
const chaosGolden = "testdata/chaos.golden"

// chaosFingerprints runs every seed of TestShardInvariantTraceHash with
// faults off and on under opts and renders one golden line per run:
// topology, trace hash, event count, final simulated time, and fault
// counters. Invariant violations fail the test. Seed 289 draws the
// dragonfly fabric with faults both off and on; the others cover chain,
// star, pair, fat-tree and both tori.
func chaosFingerprints(t *testing.T, opts Options) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, seed := range []int64{0, 1, 2, 3, 7, 11, 289} {
		for _, faults := range []bool{false, true} {
			o := opts
			o.NoFaults = !faults
			res, err := Run(seed, o)
			if err != nil {
				t.Fatalf("seed %d faults=%v %+v: %v", seed, faults, opts, err)
			}
			if res.Failed() {
				t.Errorf("seed %d faults=%v %+v violated invariants: %v", seed, faults, opts, res.Violations)
			}
			fmt.Fprintf(&b, "seed=%d faults=%v topo=%s hash=%#016x events=%d simtime=%d %+v\n",
				seed, faults, res.Scenario.Topology, res.TraceHash, res.Events, int64(res.SimTime), res.FaultStats)
		}
	}
	return b.Bytes()
}

// TestShardInvariantTraceHash is the sharded engine's core determinism
// claim, pinned across commits: the same seed produces the golden trace
// fingerprint, event count, final simulated time, and fault counters
// (per-link RNG streams must be shard-invariant) whether the cluster
// runs on 1, 2, 4, or 8 shards — with link faults on and off. Run it
// with -cpu 1,4 to also vary GOMAXPROCS (scripts/check.sh does);
// -update rewrites the golden from a 1-shard run.
func TestShardInvariantTraceHash(t *testing.T) {
	want := golden(t, chaosGolden, func() []byte { return chaosFingerprints(t, Options{}) })
	for _, shards := range []int{1, 2, 4, 8} {
		if got := chaosFingerprints(t, Options{Shards: shards}); !bytes.Equal(got, want) {
			t.Errorf("shards=%d diverged from %s:\n%s", shards, chaosGolden, lineDiff(want, got))
		}
	}
}

// golden returns the checked-in golden file at path; with -update it
// first rewrites the file from produce().
func golden(t *testing.T, path string, produce func() []byte) []byte {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, produce(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	return want
}

// lineDiff lists the lines of got that differ from want.
func lineDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "  want %s\n  got  %s\n", wl, gl)
		}
	}
	return b.String()
}

// TestBrokenCoherenceCaught proves the checkers have teeth: with the
// deliberately broken protocol variant (reflections silently dropped on
// one replica) the sweep must report coherence violations.
func TestBrokenCoherenceCaught(t *testing.T) {
	caught := 0
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(seed, Options{BreakCoherence: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range res.Violations {
			if strings.HasPrefix(v.Invariant, "coherence") {
				caught++
				break
			}
		}
	}
	if caught < 5 {
		t.Errorf("broken coherence variant caught on only %d of 10 seeds; the checkers are too weak", caught)
	}
}

// TestStreamMatchesBatch is the checker differential: a retained copy of
// the canonical merged stream, pushed through the batch checkers
// (linearize.FromTrace, CheckLocs, CheckFences), must reach the same
// linearizability and fence verdicts the online checker decided window
// by window while the run drained — across shard counts.
func TestStreamMatchesBatch(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 3, 5} {
		for _, shards := range []int{1, 2, 4, 8} {
			opts := Options{Shards: shards}
			h := build(ScenarioFor(seed, opts), opts)
			log := trace.NewEventLog()
			h.w.AddSink(log)
			res := h.run()
			for _, v := range res.Violations {
				t.Errorf("seed %d shards=%d: %v", seed, shards, v)
			}
			if log.Len() != res.Events {
				t.Errorf("seed %d shards=%d: sink retained %d of %d merged events", seed, shards, log.Len(), res.Events)
			}
			hist := linearize.FromTrace(log.Events())
			if err := linearize.CheckLocs(hist, h.locs); (err == nil) != (len(h.olz.Violations()) == 0) {
				t.Errorf("seed %d shards=%d: online linearizability verdict (%d violations) disagrees with batch (%v)",
					seed, shards, len(h.olz.Violations()), err)
			}
			if err := linearize.CheckFences(hist); (err == nil) != (len(h.olz.FenceViolations()) == 0) {
				t.Errorf("seed %d shards=%d: online fence verdict (%d violations) disagrees with batch (%v)",
					seed, shards, len(h.olz.FenceViolations()), err)
			}
			if t.Failed() {
				t.Fatalf("seed %d shards=%d diverged", seed, shards)
			}
		}
	}
}

// TestCheckpointRestore proves the TGC1 state capture is complete: a run
// whose trace state is encoded, decoded, and swapped mid-flight must end
// with the same fingerprint, event count, and final time as an
// uninterrupted run — on one shard and on several.
func TestCheckpointRestore(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 3, 7} {
		for _, shards := range []int{1, 4} {
			// Long enough that a drain boundary with merged output arrives
			// before quiescence on every seed.
			base := runSeed(t, seed, Options{Shards: shards, OpsPerNode: 150})
			cp := runSeed(t, seed, Options{Shards: shards, OpsPerNode: 150, Checkpoint: true})
			if !cp.Checkpointed {
				t.Errorf("seed %d shards=%d: checkpoint exercise never ran (no drain boundary with output?)", seed, shards)
			}
			if cp.TraceHash != base.TraceHash || cp.Events != base.Events || cp.SimTime != base.SimTime {
				t.Errorf("seed %d shards=%d: checkpointed run (hash %#x, %d events, %v) != uninterrupted (hash %#x, %d events, %v)",
					seed, shards, cp.TraceHash, cp.Events, cp.SimTime, base.TraceHash, base.Events, base.SimTime)
			}
		}
	}
}

// TestBoundedResidency is the bounded-memory claim: on a long run the
// peak number of undrained events in the rings stays far below the
// total event count (the windows drain as the run progresses), and the
// online checker's undecided windows stay small too.
func TestBoundedResidency(t *testing.T) {
	res := runSeed(t, 0, Options{OpsPerNode: 600, TraceWindow: 512})
	if res.Events < 10000 {
		t.Fatalf("long run produced only %d events; the residency bound would be vacuous", res.Events)
	}
	if res.PeakResident <= 0 || res.PeakResident*4 >= res.Events {
		t.Errorf("peak residency %d of %d events: the stream is not draining incrementally", res.PeakResident, res.Events)
	}
	if res.PeakWindow <= 0 || res.PeakWindow*4 >= res.Events {
		t.Errorf("peak undecided window %d of %d events: the checker is not deciding incrementally", res.PeakWindow, res.Events)
	}
	t.Logf("events=%d peakResident=%d peakWindow=%d", res.Events, res.PeakResident, res.PeakWindow)
}
