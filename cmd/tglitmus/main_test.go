package main

import (
	"strings"
	"testing"
)

func TestParseTests(t *testing.T) {
	sel, err := parseTests("SB, MP+fence")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || !sel["SB"] || !sel["MP+fence"] {
		t.Fatalf("parseTests(\"SB, MP+fence\") = %v, want {SB, MP+fence}", sel)
	}

	for _, list := range []string{"NOPE", "SB,NOPE", "SB,", "sb"} {
		_, err := parseTests(list)
		if err == nil {
			t.Fatalf("parseTests(%q) accepted an unknown name", list)
		}
		if msg := err.Error(); !strings.Contains(msg, "valid: SB, ") || !strings.Contains(msg, "MP+fence") {
			t.Errorf("parseTests(%q) error %q does not list the valid names", list, msg)
		}
	}
}
