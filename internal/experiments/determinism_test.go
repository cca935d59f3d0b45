package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

// update rewrites the golden files under testdata from this build.
var update = flag.Bool("update", false, "rewrite the golden files under testdata from this build")

// resultsGolden pins every measured number, series point, and matched
// row of the full suite at base seed 1 across commits.
const resultsGolden = "testdata/results.golden.json"

// runAllJSON runs the full suite under o and serializes it.
func runAllJSON(t *testing.T, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, RunAll(o)); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestExperimentsDeterministic checks that the paper's shapes are
// seed-independent: under seed 7 every experiment must still match.
// Bit-identical results under seed 1 — which catches any hidden
// real-time, map-order, or math/rand dependency — are pinned against
// the golden file by TestExperimentsShardInvariant.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite")
	}
	t.Parallel()
	for _, r := range RunAll(Options{Seed: 7}) {
		if !r.Ok() {
			t.Errorf("%s does not match the paper's shape under seed 7", r.ID)
		}
	}
}

// TestExperimentsShardInvariant runs the full pipeline on 1, 2, 4, and 8
// simulation shards and requires the serialized results to equal the
// golden file byte for byte: the sharded engine may only change
// wall-clock time, never a measurement, and no commit may move a
// measurement unless it re-blesses the golden with -update. Run it with
// -cpu 1,4 (scripts/check.sh does) to also prove the results do not
// depend on how many OS threads the shard workers share.
func TestExperimentsShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite many times")
	}
	want := golden(t, resultsGolden, func() []byte { return runAllJSON(t, Options{Seed: 1}) })
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			if got := runAllJSON(t, Options{Seed: 1, Shards: shards}); !bytes.Equal(got, want) {
				t.Fatalf("diverges from %s:\ngolden: %d bytes\nvariant: %d bytes\nfirst divergence at byte %d",
					resultsGolden, len(want), len(got), firstDiff(want, got))
			}
		})
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

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
