package experiments

import (
	"strings"
	"testing"
)

// TestEveryExperimentMatchesPaperShape is the repository's headline test:
// each experiment must reproduce the shape of its paper artifact.
func TestEveryExperimentMatchesPaperShape(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r := Get(id)(Options{Seed: 1})
			if r.ID != id {
				t.Fatalf("runner returned id %q", r.ID)
			}
			for _, row := range r.Rows {
				if !row.Match {
					t.Errorf("%s: %s — paper %q, measured %q", id, row.Name, row.Paper, row.Measured)
				}
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 16 {
		t.Fatalf("registry holds %d experiments, want 16", len(ids))
	}
	if ids[0] != "E1" || ids[15] != "E16" {
		t.Fatalf("ordering wrong: %v", ids)
	}
	if Get("E99") != nil {
		t.Fatal("unknown id should return nil")
	}
}

func TestResultFormat(t *testing.T) {
	r := &Result{
		ID: "EX", Title: "demo", Artifact: "none",
		Rows:  []Row{{Name: "a", Paper: "1", Measured: "2", Match: false}},
		Notes: "hello",
	}
	out := r.Format()
	for _, want := range []string{"EX", "demo", "MISMATCH", "hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	if r.Ok() {
		t.Fatal("Ok() with a mismatched row")
	}
}
