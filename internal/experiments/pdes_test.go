package experiments

import (
	"bytes"
	"fmt"
	"testing"
)

// pdesGolden pins the PDES sweep's executed work, critical path, final
// simulated time and trace fingerprint across commits.
const pdesGolden = "testdata/pdes.golden"

// pdesGoldenText runs a small traced PDES sweep and renders every cell's
// deterministic fields, one line per cell. Wall-clock fields (wall_ms,
// events/s, wall speedup) and the host banner are left out.
func pdesGoldenText() []byte {
	rep := PDESSweep(Options{Seed: 1, TraceWindow: 256}, []int{8, 16}, []int{1, 2, 4, 8}, 300)
	var buf bytes.Buffer
	for _, p := range rep.Points {
		fmt.Fprintf(&buf, "nodes=%d shards=%d events=%d critpath_speedup=%v sim_us=%v trace_hash=%#016x trace_events=%d\n",
			p.Nodes, p.Shards, p.Events, p.SpeedupCritPath, p.SimMicros, p.TraceHash, p.TraceEvents)
	}
	return buf.Bytes()
}

// TestPDESSweepGolden compares the sweep against the checked-in golden
// byte for byte. The trace hashes come through core.AttachTrace, the
// same wiring the litmus runner and the benchmark use, so a drift in the
// trace pipeline shows here too. -update rewrites the golden.
func TestPDESSweepGolden(t *testing.T) {
	t.Parallel()
	want := golden(t, pdesGolden, pdesGoldenText)
	if got := pdesGoldenText(); !bytes.Equal(got, want) {
		t.Fatalf("diverges from %s:\ngot:\n%s\nwant:\n%s", pdesGolden, got, want)
	}
}
