package litmus

import (
	"fmt"
	"testing"

	"telegraphos/internal/linearize"
	"telegraphos/internal/link"
	"telegraphos/internal/sim"
	"telegraphos/internal/trace"
)

// batchDisagreements runs lt under cfg with a retained copy of the
// canonical merged stream and pushes the copy through the batch checkers
// (FromTrace → CheckLocs → CheckFences). It returns every point where
// the batch verdicts disagree with the verdicts the online checker
// reached window by window while the run drained.
func batchDisagreements(lt *Test, cfg Config) []string {
	log := trace.NewEventLog()
	rr, olz, locs := run(lt, cfg, log)
	var out []string
	if log.Len() != rr.Events {
		out = append(out, fmt.Sprintf("sink retained %d of %d merged events", log.Len(), rr.Events))
	}
	hist := linearize.FromTrace(log.Events())
	if err := linearize.CheckLocs(hist, locs); (err == nil) != (len(olz.Violations()) == 0) {
		out = append(out, fmt.Sprintf("online linearizability verdict (%d violations) disagrees with batch (%v)",
			len(olz.Violations()), err))
	}
	if err := linearize.CheckFences(hist); (err == nil) != (len(olz.FenceViolations()) == 0) {
		out = append(out, fmt.Sprintf("online fence verdict (%d violations) disagrees with batch (%v)",
			len(olz.FenceViolations()), err))
	}
	return out
}

// TestOnlineMatchesBatchCorpus sweeps the whole litmus corpus through
// the batch oracle: every run's online linearizability and fence
// verdicts must match the batch checkers' verdicts over the same
// stream. Timing variants and a faulty-link schedule widen the
// histories the equivalence is proved over (drops create pending
// writes, duplicates stress the effect matching).
func TestOnlineMatchesBatchCorpus(t *testing.T) {
	plans := []*link.FaultPlan{
		nil,
		{DropProb: 0.05, DupProb: 0.05, ReorderProb: 0.10, JitterMax: 1200 * sim.Nanosecond},
	}
	for _, lt := range Tests() {
		for _, proto := range []Protocol{Update, Invalidate, Galactica} {
			if proto == Invalidate && lt.Region != Coherent {
				continue
			}
			for _, variant := range []int{0, 2} {
				for pi, plan := range plans {
					var p *link.FaultPlan
					if plan != nil {
						cp := *plan
						cp.Seed = int64(variant + 1)
						p = &cp
					}
					cfg := Config{Protocol: proto, Shards: 1, Seed: 11, Variant: variant, Faults: p}
					for _, d := range batchDisagreements(lt, cfg) {
						t.Errorf("%s/%v variant=%d plan=%d: %s", lt.Name, proto, variant, pi, d)
					}
				}
			}
		}
	}
}
