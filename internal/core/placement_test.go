package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"telegraphos/internal/params"
)

var update = flag.Bool("update", false, "rewrite testdata/placement.golden from this build")

// placementLine renders one cluster's fabric layout: every switch's name
// and the shard it runs on, and a 64-bit FNV-1a hash of the ordered link
// names. Link names seed the fault RNG streams and link creation order
// fixes the sim.Chan ids that order simultaneous messages, so a renamed
// or reordered link changes simulated behaviour even where the
// shard-invariant goldens cannot see it.
func placementLine(topo string, nodes, shards int) string {
	cfg := params.Default(nodes)
	cfg.Sizing.MemBytes = 1 << 20
	cfg.Topology = topo
	cfg.Shards = shards
	c := New(cfg)
	var b strings.Builder
	fmt.Fprintf(&b, "%s n=%d shards=%d sw=", topo, nodes, shards)
	for i, sw := range c.Net.Switches {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d", sw.Name(), sw.Engine().Shard())
	}
	h := fnv.New64a()
	for _, l := range c.Net.Links() {
		h.Write([]byte(l.Name()))
		h.Write([]byte{0})
	}
	fmt.Fprintf(&b, " links=%d:%016x\n", len(c.Net.Links()), h.Sum64())
	return b.String()
}

// TestPlacementGolden pins which shard every switch of every topology
// runs on and the names and order of every link, against
// testdata/placement.golden. Rewrite it with -update.
func TestPlacementGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString(placementLine("pair", 2, 2))
	for _, topo := range []string{"star", "chain", "tree", "torus2d", "torus3d", "fattree", "dragonfly", "dragonfly-val"} {
		for _, nodes := range []int{5, 16, 27, 64} {
			for _, shards := range []int{2, 3, 8} {
				b.WriteString(placementLine(topo, nodes, shards))
			}
		}
	}
	got := []byte(b.String())
	const path = "testdata/placement.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("placement differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("placement differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
