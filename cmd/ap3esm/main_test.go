package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	type flags struct {
		days               float64
		ranks, ck, retries int
		gate               float64
	}
	ok := flags{days: 1, ranks: 1, retries: 3}
	with := func(f func(*flags)) flags { g := ok; f(&g); return g }
	for _, tc := range []struct {
		name string
		in   flags
		want string // "" = accepted
	}{
		{"defaults", ok, ""},
		{"quarter day", with(func(f *flags) { f.days = 0.25 }), ""},
		{"longest run", with(func(f *flags) { f.days = float64(maxDays) }), ""},
		{"zeroes keep their meaning", with(func(f *flags) { f.ck, f.retries, f.gate = 0, 0, 0 }), ""},
		{"checkpointed and gated", with(func(f *flags) { f.ck, f.gate = 8, 1e-10 }), ""},
		{"days overflow", with(func(f *flags) { f.days = 1e9 }), "-days"},
		{"days past the longest run", with(func(f *flags) { f.days = float64(maxDays) + 1 }), "-days"},
		{"days NaN", with(func(f *flags) { f.days = math.NaN() }), "-days"},
		{"days +Inf", with(func(f *flags) { f.days = math.Inf(1) }), "-days"},
		{"days zero", with(func(f *flags) { f.days = 0 }), "-days"},
		{"days negative", with(func(f *flags) { f.days = -1 }), "-days"},
		{"days under a nanosecond", with(func(f *flags) { f.days = 1e-15 }), "-days"},
		{"ranks zero", with(func(f *flags) { f.ranks = 0 }), "-ranks"},
		{"checkpoint-every negative", with(func(f *flags) { f.ck = -2 }), "-checkpoint-every"},
		{"max-retries negative", with(func(f *flags) { f.retries = -1 }), "-max-retries"},
		{"audit-gate negative", with(func(f *flags) { f.gate = -1 }), "-audit-gate"},
		{"audit-gate NaN", with(func(f *flags) { f.gate = math.NaN() }), "-audit-gate"},
	} {
		in := tc.in
		length, err := checkFlags(in.days, in.ranks, in.ck, in.retries, in.gate)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want == "" && length != time.Duration(in.days*24*float64(time.Hour)):
			t.Errorf("%s: length %v for %v days", tc.name, length, in.days)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want+" ")):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}
