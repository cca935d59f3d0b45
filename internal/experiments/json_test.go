package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"telegraphos/internal/stats"
)

func TestWriteJSONRoundTrips(t *testing.T) {
	s := stats.Series{Name: "sweep", XLabel: "x", YLabel: "y"}
	s.Add(1, 2)
	s.Add(3, 4)
	in := []*Result{{
		ID: "EX", Title: "demo", Artifact: "none",
		Rows:   []Row{{Name: "r", Paper: "p", Measured: "m", Match: true}},
		Series: []stats.Series{s},
		Notes:  "n",
	}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 1 {
		t.Fatalf("results = %d", len(out))
	}
	r := out[0]
	if r["id"] != "EX" || r["ok"] != true || r["notes"] != "n" {
		t.Fatalf("fields wrong: %v", r)
	}
	rows := r["rows"].([]interface{})
	if len(rows) != 1 || rows[0].(map[string]interface{})["measured"] != "m" {
		t.Fatalf("rows wrong: %v", rows)
	}
	series := r["series"].([]interface{})
	pts := series[0].(map[string]interface{})["points"].([]interface{})
	if len(pts) != 2 {
		t.Fatalf("points wrong: %v", pts)
	}
}

func TestWriteJSONRealExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Result{E3GateCount(Options{})}); err != nil {
		t.Fatal(err)
	}
	var out []jsonResult
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out[0].ID != "E3" || !out[0].Ok {
		t.Fatalf("E3 JSON wrong: %+v", out[0])
	}
}
