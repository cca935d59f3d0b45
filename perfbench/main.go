// Command perfbench is the Telegraphos simulator benchmark. It runs one
// seeded workload for a fixed host-time budget, checks the simulated
// outputs, and prints every metric by name and unit, with a one-line
// JSON result last:
//
//	perfbench --workload stream --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs at 1 and
// 2 shards; --trace 1 reports the per-layer metrics from runs carrying
// the benchmark's probes (see README.md). Each run executes in a fresh
// child process of this binary, so every run starts from the same
// empty heap.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// defaultSeed is the workload seed used when --seed is absent; README.md
// names the held-out seed.
const defaultSeed = 1

// minCycles is the least number of job cycles a benchmark run makes,
// however short its --seconds budget.
const minCycles = 2

// runTimeout bounds a whole benchmark run, children included.
const runTimeout = 150 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: stream, rpc or coherent")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "host-time budget for measured runs")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs")
	child := fs.String("child", "", "run one job in this process and print its JSON: run or pair")
	shards := fs.Int("shards", 1, "shard count of a -child run job")
	traced := fs.Bool("traced", false, "install the probes in a -child run job")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	switch *child {
	case "":
	case "run":
		res := runOnce(wl, *seed, *shards, wl.opsPerNode, *traced)
		res.Setups = timeSetups(wl, *seed, *shards, wl.opsPerNode, setupRepeats)
		return emit(stdout, res)
	case "pair":
		return emit(stdout, pairRun(wl, *seed, wl.opsPerNode))
	default:
		fmt.Fprintf(stderr, "perfbench: unknown -child job %q\n", *child)
		return 2
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	run := func(j job) *runResult { return runChild(ctx, exe, wl, *seed, j, stderr) }
	rep := bench(wl, *traceFlag == 1, time.Duration(*seconds)*time.Second, run)
	rep.print(stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

func emit(w io.Writer, r *runResult) int {
	if err := json.NewEncoder(w).Encode(r); err != nil {
		return 1
	}
	return 0
}

// job is one measured run: a workload run at a shard count, with or
// without probes, or the side-by-side pair of single-shard runs.
type job struct {
	shards int
	traced bool
	pair   bool
}

// runChild runs j in a child process of this binary.
func runChild(ctx context.Context, exe string, wl workload, seed int64, j job, stderr io.Writer) *runResult {
	args := []string{"-workload", wl.name, "-seed", strconv.FormatInt(seed, 10)}
	if j.pair {
		args = append(args, "-child", "pair")
	} else {
		args = append(args, "-child", "run", "-shards", strconv.Itoa(j.shards), "-traced="+strconv.FormatBool(j.traced))
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	res := &runResult{Workload: wl.name, Shards: j.shards, Traced: j.traced}
	if err := cmd.Run(); err != nil {
		res.Failures = []string{fmt.Sprintf("%s: child run %v: %v", wl.name, j, err)}
		return res
	}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		res.Failures = []string{fmt.Sprintf("%s: child run %v: bad result: %v", wl.name, j, err)}
	}
	return res
}

// report is one benchmark run's outcome.
type report struct {
	Correct   bool
	Attempted uint64
	Failed    uint64
	Metrics   []metric
	Failures  []string
}

// bench runs job cycles until the budget is spent (at least minCycles),
// checks every run against the first, and aggregates the metrics: the
// end-to-end set, or with traced the per-layer set.
func bench(wl workload, traced bool, budget time.Duration, run func(job) *runResult) *report {
	jobs := []job{{shards: 1}, {shards: 2}}
	if traced {
		jobs = append(jobs, job{shards: 1, traced: true}, job{shards: 2, traced: true}, job{shards: 1, pair: true})
	}
	results := make([][]*runResult, len(jobs))
	deadline := now().Add(budget)
	for cycle := 0; cycle < minCycles || now().Before(deadline); cycle++ {
		for k, j := range jobs {
			results[k] = append(results[k], run(j))
		}
	}

	rep := &report{}
	var ref *runResult
	for k, rs := range results {
		for _, r := range rs {
			if !jobs[k].pair && len(r.Failures) == 0 {
				if ref == nil {
					ref = r
				}
				r.Failures = divergence(ref, r)
			}
			rep.Attempted += r.Ops
			if len(r.Failures) > 0 {
				rep.Failed += r.Ops
				rep.Failures = append(rep.Failures, r.Failures...)
			}
		}
	}
	if ref == nil {
		rep.Failures = append(rep.Failures, wl.name+": no run passed its output check")
		rep.Attempted = max(rep.Attempted, 1)
		rep.Failed = rep.Attempted
		return rep
	}
	rep.Correct = len(rep.Failures) == 0
	errRate := float64(rep.Failed) / float64(rep.Attempted)

	u1, u2 := results[0], results[1]
	untraced := append(append([]*runResult{}, u1...), u2...)
	if !traced {
		rep.Metrics = []metric{
			{"setup_s", setupMedian(untraced, func(st setupTimes) int64 { return st.Total }) / 1e9, "s"},
			{"ops_per_s.shards1", median(u1, opsPerSec), "ops/s"},
			{"ops_per_s.shards2", median(u2, opsPerSec), "ops/s"},
			{"sim_time_us", float64(ref.SimNS) / 1e3, "us"},
			pick(ref.Latency, "sim_op_us.mean")[0],
			{"host_heap_mb", median(untraced, func(r *runResult) float64 { return float64(r.HeapLive) / (1 << 20) }), "MiB"},
			{"ok_rate", 1 - errRate, "ratio"},
		}
		return rep
	}

	t1, t2, pairs := results[2], results[3], results[4]
	all := append(append(untraced, t1...), t2...)
	runNS := func(r *runResult) float64 { return float64(r.RunNS) }
	// Ratios of runs are taken within a job cycle, whose runs are
	// seconds apart, and then the median over cycles: the host's speed
	// drifts less within a cycle than across the run.
	events := float64(ref.Events)
	cpus := runtime.NumCPU()            //tgvet:allow taint(host metadata reported beside the parallel-efficiency figure; never feeds simulation state)
	gomaxprocs := runtime.GOMAXPROCS(0) //tgvet:allow taint(host metadata reported beside the parallel-efficiency figure; never feeds simulation state)
	rep.Metrics = []metric{
		{"sim.host_ns_per_event", median(u1, runNS) / events, "ns"},
		{"sim.alloc_bytes_per_event", median(u1, func(r *runResult) float64 { return float64(r.AllocBytes) }) / events, "B"},
		{"sim.ceiling_speedup", pairedMedian(u1, pairs, func(u1, pair *runResult) float64 { return 2 * float64(u1.RunNS) / float64(pair.RunNS) }), "x"},
		// (1-shard wall ÷ 2-shard wall) ÷ ceiling, within each cycle.
		{"sim.parallel_efficiency", pairedMedian(u2, pairs, func(u2, pair *runResult) float64 { return float64(pair.RunNS) / (2 * float64(u2.RunNS)) }), "ratio"},
		{"host.cpus", float64(cpus), "count"},
		{"host.gomaxprocs", float64(gomaxprocs), "count"},
		{"core.new_ms", setupMedian(all, func(st setupTimes) int64 { return st.New }) / 1e6, "ms"},
		{"core.spawn_ms", setupMedian(all, func(st setupTimes) int64 { return st.Spawn }) / 1e6, "ms"},
		{"bench.tracing_overhead", pairedMedian(t1, u1, func(t1, u1 *runResult) float64 { return float64(t1.RunNS)/float64(u1.RunNS) - 1 }), "ratio"},
	}
	rep.Metrics = append(rep.Metrics, ref.Counts...)
	rep.Metrics = append(rep.Metrics, pick(ref.Latency, "cpu.sim_op_us.p50", "cpu.sim_op_us.p99",
		"cpu.sim_read_us.p50", "cpu.sim_read_us.p99", "cpu.sim_write_us.p50", "cpu.sim_write_us.p99",
		"cpu.sim_atomic_us.p50", "cpu.sim_atomic_us.p99", "cpu.sim_fence_us.p50", "cpu.sim_fence_us.p99")...)
	// Round telemetry comes from the 2-shard traced runs (a single shard
	// has no barrier rounds); the trace and checker probes from the
	// 1-shard traced runs.
	rep.Metrics = append(rep.Metrics, medianOf(t2, func(r *runResult) []metric { return r.Rounds })...)
	rep.Metrics = append(rep.Metrics, medianOf(t1, func(r *runResult) []metric { return r.Probes })...)
	return rep
}

func opsPerSec(r *runResult) float64 { return float64(r.Ops) / (float64(r.RunNS) / 1e9) }

// divergence compares r's simulated outcome with the reference run's:
// executed events, final simulated time, trace fingerprint, per-layer
// counts and op latencies must match exactly at every shard count.
func divergence(ref, r *runResult) []string {
	var bad []string
	if r.Events != ref.Events || r.SimNS != ref.SimNS || r.Ops != ref.Ops {
		bad = append(bad, fmt.Sprintf("%s: %d shards executed %d events to %d ns, reference %d shards executed %d events to %d ns",
			r.Workload, r.Shards, r.Events, r.SimNS, ref.Shards, ref.Events, ref.SimNS))
	}
	if r.TraceHash != ref.TraceHash || r.TraceEvents != ref.TraceEvents {
		bad = append(bad, fmt.Sprintf("%s: %d shards trace hash %#x over %d events, reference %d shards %#x over %d events",
			r.Workload, r.Shards, r.TraceHash, r.TraceEvents, ref.Shards, ref.TraceHash, ref.TraceEvents))
	}
	for _, set := range [][2][]metric{{ref.Counts, r.Counts}, {ref.Latency, r.Latency}} {
		if !sameMetrics(set[0], set[1]) {
			bad = append(bad, fmt.Sprintf("%s: %d shards per-layer counts or latencies differ from the reference run", r.Workload, r.Shards))
		}
	}
	return bad
}

func sameMetrics(a, b []metric) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// median returns the median of f over runs.
func median(runs []*runResult, f func(*runResult) float64) float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = f(r)
	}
	sort.Float64s(v)
	return quantile(v, 0.5)
}

// pairedMedian returns the median over job cycles i of f(a[i], b[i]).
func pairedMedian(a, b []*runResult, f func(a, b *runResult) float64) float64 {
	v := make([]float64, len(a))
	for i := range a {
		v[i] = f(a[i], b[i])
	}
	sort.Float64s(v)
	return quantile(v, 0.5)
}

// setupMedian returns the median of f over every set-up the runs timed.
func setupMedian(runs []*runResult, f func(setupTimes) int64) float64 {
	var v []float64
	for _, r := range runs {
		for _, st := range r.Setups {
			v = append(v, float64(f(st)))
		}
	}
	sort.Float64s(v)
	return quantile(v, 0.5)
}

// medianOf returns, for every metric of the first run's set, its median
// over the runs.
func medianOf(runs []*runResult, set func(*runResult) []metric) []metric {
	out := append([]metric{}, set(runs[0])...)
	for i := range out {
		out[i].Value = median(runs, func(r *runResult) float64 { return find(set(r), out[i].Name) })
	}
	return out
}

func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// pick returns the named metrics of ms, in the order named.
func pick(ms []metric, names ...string) []metric {
	out := make([]metric, 0, len(names))
	for _, n := range names {
		for _, m := range ms {
			if m.Name == n {
				out = append(out, m)
			}
		}
	}
	return out
}

// print writes every metric as "name value unit", the failures, and the
// JSON result as the last line.
func (rep *report) print(w io.Writer) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rep.Metrics))
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "%-34s %.6g %s\n", m.Name, m.Value, m.Unit)
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	fmt.Fprintf(w, "error_rate %.6g (%d of %d ops failed)\n", float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	seen := make(map[string]bool)
	for _, f := range rep.Failures {
		if !seen[f] {
			seen[f] = true
			fmt.Fprintln(w, "FAIL", f)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fmt.Fprintln(w, "FAIL", err)
		return
	}
	fmt.Fprintln(w, string(line))
}
