package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCheckHours(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hours  int
		reject bool
	}{
		{"one fix", 6, false},
		{"default day", 24, false},
		{"longest run", int(maxHours), false},
		{"one past the longest run", int(maxHours) + 1, true},
		{"wraps the duration", 3_000_000, true},
		{"largest int", math.MaxInt, true},
		{"no fix", 5, true},
		{"zero", 0, true},
		{"negative", -6, true},
	} {
		length, err := checkHours(tc.hours)
		switch {
		case !tc.reject && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case !tc.reject && (length <= 0 || length/time.Hour != time.Duration(tc.hours+1)):
			t.Errorf("%s: length %v for %d hours", tc.name, length, tc.hours)
		case tc.reject && (err == nil || !strings.HasPrefix(err.Error(), "-hours ")):
			t.Errorf("%s: error %v, want one naming -hours", tc.name, err)
		}
	}
}
