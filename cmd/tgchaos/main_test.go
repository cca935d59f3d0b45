package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, ok := range [][2]int{{1, 0}, {8, 0}, {2, 512}} {
		if err := checkFlags(ok[0], ok[1]); err != nil {
			t.Errorf("checkFlags(%d, %d) = %v, want nil", ok[0], ok[1], err)
		}
	}
	for _, bad := range []struct {
		shards, window int
		flag           string
	}{
		{0, 0, "-shards"},
		{-3, 0, "-shards"},
		{1, -7, "-window"},
	} {
		err := checkFlags(bad.shards, bad.window)
		if err == nil || !strings.HasPrefix(err.Error(), bad.flag+" ") {
			t.Errorf("checkFlags(%d, %d) = %v, want an error naming %s", bad.shards, bad.window, err, bad.flag)
		}
	}
}
