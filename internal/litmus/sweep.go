package litmus

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"telegraphos/internal/link"
	"telegraphos/internal/sim"
)

// FaultLevel is one named link-fault schedule of the sweep.
type FaultLevel struct {
	Name string
	Plan *link.FaultPlan // nil = clean network
}

// FaultLevels returns the sweep's fault schedules. The plans' own Seed
// field is filled per run.
func FaultLevels(quick bool) []FaultLevel {
	levels := []FaultLevel{
		{Name: "none"},
		{Name: "light", Plan: &link.FaultPlan{
			DropProb: 0.02, DupProb: 0.02, ReorderProb: 0.05,
			JitterMax: 800 * sim.Nanosecond,
		}},
	}
	if !quick {
		levels = append(levels, FaultLevel{Name: "heavy", Plan: &link.FaultPlan{
			DropProb: 0.10, DupProb: 0.08, ReorderProb: 0.12,
			JitterMax: 1500 * sim.Nanosecond,
		}})
	}
	return levels
}

// SweepOptions sizes a sweep.
type SweepOptions struct {
	// Quick trims the matrix (fewer variants, no heavy faults, shards
	// {1,2}) for the tier-1 gate.
	Quick bool
	// Tests restricts the sweep to the named tests (nil = all).
	Tests map[string]bool
	// Seed offsets every run's simulation seed.
	Seed int64
	// Verbose streams each run's verdict to Out.
	Verbose bool
	// Out receives the report (nil discards it).
	Out io.Writer
}

// CellKey identifies one histogram cell.
type CellKey struct {
	Test     string
	Protocol Protocol
	Shards   int
	Faults   string
	// Comb marks the in-switch combining arm (run only for tests that
	// issue fetch&increments — combining is a no-op for the rest).
	Comb bool
	// Topo and Nodes identify a topology-sweep arm (SweepTopo); both are
	// zero in the classic star sweep.
	Topo  string
	Nodes int
}

// usesFAI reports whether the test issues any fetch&increment — the only
// operation in-switch combining transforms.
func usesFAI(t *Test) bool {
	for _, th := range t.Threads {
		for _, s := range th {
			if s.Op == FAI {
				return true
			}
		}
	}
	return false
}

// Cell accumulates one configuration's outcomes over the variant sweep.
type Cell struct {
	Runs      int
	Outcomes  map[string]int
	Forbidden int // forbidden-outcome hits (anomaly count under Galactica)
	Witnessed int
}

// SweepResult aggregates a sweep.
type SweepResult struct {
	Cells      map[CellKey]*Cell
	Violations []string
	// MissingWitness lists test/protocol pairs whose expected anomaly
	// never showed (e.g. Galactica's 1,2,1 not reproduced).
	MissingWitness []string
	Runs           int
}

// Failed reports whether the sweep must fail the build: any conformance
// violation, or an expected anomaly that never materialized.
func (r *SweepResult) Failed() bool {
	return len(r.Violations) > 0 || len(r.MissingWitness) > 0
}

// Sweep runs the full litmus matrix: every test × protocol × shard
// count × fault schedule × timing variant, plus an in-switch combining
// arm for tests that issue fetch&increments. Invalidate's centralized
// directory restricts it to single-shard runs.
func Sweep(opts SweepOptions) *SweepResult {
	m := matrix{
		shards:    []int{1, 2, 4},
		variants:  5,
		topos:     []TopoLevel{{}},
		faults:    FaultLevels(opts.Quick),
		combining: true,
		witness:   true,
	}
	if opts.Quick {
		m.shards = []int{1, 2}
		m.variants = 3
	}
	return m.run(opts)
}

// matrix is the shape of one sweep: the axes Sweep and SweepTopo differ
// in. The zero TopoLevel is the classic star machine sized to the test.
type matrix struct {
	shards    []int
	variants  int
	topos     []TopoLevel
	faults    []FaultLevel
	combining bool // add a combining arm for tests that issue fetch&inc
	witness   bool // require each test's expected anomaly to show
}

// run executes every (selected) test × topology × protocol × shard
// count × fault level × combining arm × variant, then checks that runs
// differing only in shard count produced identical trace hashes.
func (m matrix) run(opts SweepOptions) *SweepResult {
	protocols := []Protocol{Update, Invalidate, Galactica}
	res := &SweepResult{Cells: make(map[CellKey]*Cell)}
	witnessNeeded := make(map[string]bool) // "test/protocol" → still missing
	// Trace hashes per run configuration with the shard count left out,
	// in shard order, for the shard-invariance check.
	type hashKey struct {
		cell    CellKey
		variant int
	}
	hashes := make(map[hashKey][]uint64)
	var hashOrder []hashKey

	for _, t := range Tests() {
		if opts.Tests != nil && !opts.Tests[t.Name] {
			continue
		}
		combModes := []bool{false}
		if m.combining && usesFAI(t) {
			combModes = append(combModes, true)
		}
		for _, tl := range m.topos {
			for _, proto := range protocols {
				if !t.runsUnder(proto) {
					continue
				}
				if m.witness && t.needsWitness(proto) {
					witnessNeeded[t.Name+"/"+proto.String()] = true
				}
				for _, shards := range m.shards {
					if proto == Invalidate && shards > 1 {
						continue
					}
					for _, fl := range m.faults {
						for _, comb := range combModes {
							key := CellKey{Test: t.Name, Protocol: proto, Shards: shards, Faults: fl.Name,
								Comb: comb, Topo: tl.Topo, Nodes: tl.Nodes}
							cell := res.Cells[key]
							if cell == nil {
								cell = &Cell{Outcomes: make(map[string]int)}
								res.Cells[key] = cell
							}
							for v := 0; v < m.variants; v++ {
								seed := opts.Seed + int64(v)*7919
								var plan *link.FaultPlan
								if fl.Plan != nil {
									p := *fl.Plan
									p.Seed = seed
									plan = &p
								}
								rr := Run(t, Config{
									Protocol:  proto,
									Shards:    shards,
									Faults:    plan,
									Combining: comb,
									Variant:   v,
									Seed:      seed,
									Topology:  tl.Topo,
									Nodes:     tl.Nodes,
								})
								res.Runs++
								cell.Runs++
								cell.Outcomes[rr.Outcome.String()]++
								if rr.Forbidden {
									cell.Forbidden++
								}
								if rr.Witnessed {
									cell.Witnessed++
									delete(witnessNeeded, t.Name+"/"+proto.String())
								}
								for _, viol := range rr.Violations {
									res.Violations = append(res.Violations,
										fmt.Sprintf("%s %s variant=%d: %s", t.Name, m.describe(key, false), v, viol))
								}
								hk := hashKey{key, v}
								hk.cell.Shards = 0
								if _, seen := hashes[hk]; !seen {
									hashOrder = append(hashOrder, hk)
								}
								hashes[hk] = append(hashes[hk], rr.TraceHash)
								if opts.Verbose && opts.Out != nil {
									fmt.Fprintf(opts.Out, "  %-14s %s v=%d → %v\n",
										t.Name, m.describe(key, true), v, rr.Outcome)
								}
							}
						}
					}
				}
			}
		}
	}

	for _, hk := range hashOrder {
		for _, h := range hashes[hk][1:] {
			if h != hashes[hk][0] {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"shard-variance: %s %s variant=%d: trace hash differs across shard counts",
					hk.cell.Test, m.describe(hk.cell, false), hk.variant))
				break
			}
		}
	}

	for key := range witnessNeeded {
		res.MissingWitness = append(res.MissingWitness, key)
	}
	sort.Strings(res.MissingWitness)
	return res
}

// describe renders a run configuration for violation and verbose lines;
// pad aligns verbose columns. A zero shard count (a shard-invariance
// key) is left out, and the combining arm shows only in sweeps that
// have one.
func (m matrix) describe(k CellKey, pad bool) string {
	protoW, faultsW := 0, 0
	if pad {
		protoW, faultsW = 10, 5
	}
	var b strings.Builder
	if k.Topo != "" {
		fmt.Fprintf(&b, "topo=%s/%d ", k.Topo, k.Nodes)
	}
	fmt.Fprintf(&b, "proto=%-*v", protoW, k.Protocol)
	if k.Shards != 0 {
		fmt.Fprintf(&b, " shards=%d", k.Shards)
	}
	fmt.Fprintf(&b, " faults=%-*s", faultsW, k.Faults)
	if m.combining {
		fmt.Fprintf(&b, " comb=%v", k.Comb)
	}
	return b.String()
}

// Report renders the sweep's outcome histograms and verdicts.
func (r *SweepResult) Report(w io.Writer) {
	keys := make([]CellKey, 0, len(r.Cells))
	//tgvet:allow maporder(keys are sorted by the sort.Slice below before the report is rendered)
	for k := range r.Cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Test != b.Test {
			return a.Test < b.Test
		}
		if a.Topo != b.Topo {
			return a.Topo < b.Topo
		}
		if a.Nodes != b.Nodes {
			return a.Nodes < b.Nodes
		}
		if a.Protocol != b.Protocol {
			return a.Protocol < b.Protocol
		}
		if a.Shards != b.Shards {
			return a.Shards < b.Shards
		}
		if a.Faults != b.Faults {
			return a.Faults < b.Faults
		}
		return !a.Comb && b.Comb
	})
	lastTest := ""
	for _, k := range keys {
		if k.Test != lastTest {
			fmt.Fprintf(w, "\n%s\n", k.Test)
			lastTest = k.Test
		}
		c := r.Cells[k]
		if k.Topo != "" {
			fmt.Fprintf(w, "  topo=%s/%d", k.Topo, k.Nodes)
		}
		fmt.Fprintf(w, "  proto=%-10v shards=%d faults=%-5s runs=%d", k.Protocol, k.Shards, k.Faults, c.Runs)
		if k.Comb {
			fmt.Fprintf(w, " comb")
		}
		if c.Forbidden > 0 {
			fmt.Fprintf(w, " forbidden=%d", c.Forbidden)
		}
		fmt.Fprintln(w)
		for _, out := range sortedKeys(c.Outcomes) {
			fmt.Fprintf(w, "    %3d× [%s]\n", c.Outcomes[out], out)
		}
	}
	fmt.Fprintf(w, "\n%d runs", r.Runs)
	if len(r.Violations) > 0 {
		fmt.Fprintf(w, ", %d VIOLATIONS:\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(w, "  ✗ %s\n", v)
		}
	} else {
		fmt.Fprintf(w, ", no violations\n")
	}
	for _, m := range r.MissingWitness {
		fmt.Fprintf(w, "  ✗ expected anomaly never observed: %s\n", m)
	}
}
