package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckLiveFlags(t *testing.T) {
	for _, tc := range []struct {
		name      string
		days      float64
		ranks, ck int
		want      string // "" = accepted
	}{
		{"defaults", 0.2, 1, 10, ""},
		{"longest run", float64(maxDays), 2, 1, ""},
		{"days overflow", 1e9, 1, 10, "-days"},
		{"days NaN", math.NaN(), 1, 10, "-days"},
		{"days -Inf", math.Inf(-1), 1, 10, "-days"},
		{"days zero", 0, 1, 10, "-days"},
		{"days negative", -1, 1, 10, "-days"},
		{"ranks zero", 0.2, 0, 10, "-ranks"},
		{"checkpoint-every zero", 0.2, 1, 0, "-checkpoint-every"},
	} {
		err := checkLiveFlags(tc.days, tc.ranks, tc.ck)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want+" ")):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}
