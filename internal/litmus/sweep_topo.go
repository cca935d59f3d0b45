package litmus

// The topology axis of the litmus sweep: the same tests, protocols and
// checkers, but run across the generated fabrics (torus, fat-tree,
// dragonfly) on machines much larger than the tests' role counts, so
// the coherence traffic crosses multi-hop deadlock-avoiding routes
// instead of one star switch. Verdicts must not change — the memory
// model is a property of the boards and protocols, not of the wires —
// and trace hashes must stay bit-identical across shard counts.

import (
	"fmt"
	"sort"

	"telegraphos/internal/link"
)

// TopoLevel is one topology arm of the sweep.
type TopoLevel struct {
	Topo  string
	Nodes int
}

// TopoLevels returns the sweep's topology arms: every generated shape
// at 16 nodes, plus 64-node arms when quick is false.
func TopoLevels(quick bool) []TopoLevel {
	levels := []TopoLevel{
		{"torus2d", 16},
		{"fattree", 16},
		{"dragonfly", 16},
	}
	if !quick {
		levels = append(levels,
			TopoLevel{"torus2d", 64},
			TopoLevel{"torus3d", 64},
			TopoLevel{"fattree", 64},
			TopoLevel{"dragonfly", 64},
			TopoLevel{"dragonfly-val", 64},
		)
	}
	return levels
}

// SweepTopo runs the topology matrix: every (selected) test × topology
// arm × protocol × shard count. Witness outcomes are not required here
// (timing anomalies are machine-dependent); conformance — quiescence,
// linearizability, fences, coherence, no forbidden outcomes under the
// Telegraphos protocols, shard-invariant hashes — is.
func SweepTopo(opts SweepOptions) *SweepResult {
	shardList := []int{1, 2, 4}
	variants := 2
	if opts.Quick {
		shardList = []int{1, 2}
		variants = 1
	}
	levels := TopoLevels(opts.Quick)
	protocols := []Protocol{Update, Invalidate, Galactica}
	faultLevels := FaultLevels(true) // none + light; heavy is the star sweep's job

	res := &SweepResult{Cells: make(map[CellKey]*Cell)}
	type hashKey struct {
		test     string
		protocol Protocol
		topo     string
		nodes    int
		faults   string
		variant  int
	}
	hashes := make(map[hashKey]map[int]uint64)

	for _, t := range Tests() {
		if opts.Tests != nil && !opts.Tests[t.Name] {
			continue
		}
		for _, tl := range levels {
			for _, proto := range protocols {
				if !t.runsUnder(proto) {
					continue
				}
				for _, shards := range shardList {
					if proto == Invalidate && shards > 1 {
						continue
					}
					for _, fl := range faultLevels {
						key := CellKey{Test: t.Name, Protocol: proto, Shards: shards,
							Faults: fl.Name, Topo: tl.Topo, Nodes: tl.Nodes}
						cell := res.Cells[key]
						if cell == nil {
							cell = &Cell{Outcomes: make(map[string]int)}
							res.Cells[key] = cell
						}
						for v := 0; v < variants; v++ {
							seed := opts.Seed + int64(v)*7919
							var plan *link.FaultPlan
							if fl.Plan != nil {
								p := *fl.Plan
								p.Seed = seed
								plan = &p
							}
							rr := Run(t, Config{
								Protocol: proto,
								Shards:   shards,
								Faults:   plan,
								Variant:  v,
								Seed:     seed,
								Topology: tl.Topo,
								Nodes:    tl.Nodes,
							})
							res.Runs++
							cell.Runs++
							cell.Outcomes[rr.Outcome.String()]++
							if rr.Forbidden {
								cell.Forbidden++
							}
							if rr.Witnessed {
								cell.Witnessed++
							}
							for _, viol := range rr.Violations {
								res.Violations = append(res.Violations,
									fmt.Sprintf("%s topo=%s/%d proto=%v shards=%d faults=%s variant=%d: %s",
										t.Name, tl.Topo, tl.Nodes, proto, shards, fl.Name, v, viol))
							}
							hk := hashKey{t.Name, proto, tl.Topo, tl.Nodes, fl.Name, v}
							if hashes[hk] == nil {
								hashes[hk] = make(map[int]uint64)
							}
							hashes[hk][shards] = rr.TraceHash
							if opts.Verbose && opts.Out != nil {
								fmt.Fprintf(opts.Out, "  %-14s topo=%s/%d proto=%-10v shards=%d faults=%-5s v=%d → %v\n",
									t.Name, tl.Topo, tl.Nodes, proto, shards, fl.Name, v, rr.Outcome)
							}
						}
					}
				}
			}
		}
	}

	// Shard invariance per (test, topology, protocol, faults, variant).
	hkeys := make([]hashKey, 0, len(hashes))
	//tgvet:allow maporder(keys are sorted by the sort.Slice below before the invariance check)
	for hk := range hashes {
		hkeys = append(hkeys, hk)
	}
	sort.Slice(hkeys, func(i, j int) bool {
		a, b := hkeys[i], hkeys[j]
		if a.test != b.test {
			return a.test < b.test
		}
		if a.topo != b.topo {
			return a.topo < b.topo
		}
		if a.nodes != b.nodes {
			return a.nodes < b.nodes
		}
		if a.protocol != b.protocol {
			return a.protocol < b.protocol
		}
		if a.faults != b.faults {
			return a.faults < b.faults
		}
		return a.variant < b.variant
	})
	for _, hk := range hkeys {
		byShard := hashes[hk]
		var want uint64
		first := true
		for _, shards := range shardList {
			h, ok := byShard[shards]
			if !ok {
				continue
			}
			if first {
				want, first = h, false
				continue
			}
			if h != want {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"shard-variance: %s topo=%s/%d proto=%v faults=%s variant=%d: trace hash differs across shard counts",
					hk.test, hk.topo, hk.nodes, hk.protocol, hk.faults, hk.variant))
				break
			}
		}
	}
	return res
}
