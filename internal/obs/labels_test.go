package obs

import (
	"strings"
	"testing"
)

func TestSplitLabels(t *testing.T) {
	for _, tc := range []struct{ name, base, labels string }{
		{`cpl.halo.msgs{component="ocn"}`, "cpl.halo.msgs", `component="ocn"`},
		{`x{a="1",b="2"}`, "x", `a="1",b="2"`},
		{"plain.name", "plain.name", ""},
		{"unclosed{a=\"1\"", "unclosed{a=\"1\"", ""},
	} {
		if b, l := SplitLabels(tc.name); b != tc.base || l != tc.labels {
			t.Errorf("SplitLabels(%q) = %q, %q; want %q, %q", tc.name, b, l, tc.base, tc.labels)
		}
	}
}

// The Prometheus renderer keeps labeled counters in one metric family: the
// label body moves into the series' braces alongside the rank label, so the
// unified cpl.halo.* counters render as one family with a component label.
func TestPromRenderSplitsLabeledCounters(t *testing.T) {
	sink := &PromSink{}
	o := New(3, sink)
	o.AddCount(`cpl.halo.msgs{component="ocn"}`, 7)
	o.AddCount(`cpl.halo.msgs{component="atm"}`, 5)
	o.FlushMetrics()
	var b strings.Builder
	sink.Render(&b)
	out := b.String()
	for _, want := range []string{
		`ap3esm_cpl_halo_msgs{component="ocn",rank="3"} 7`,
		`ap3esm_cpl_halo_msgs{component="atm",rank="3"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered exposition missing %q:\n%s", want, out)
		}
	}
}
