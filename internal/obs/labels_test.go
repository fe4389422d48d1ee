package obs

import (
	"strings"
	"testing"
)

func TestLabeledCanonicalFormAndSplit(t *testing.T) {
	if got := Labeled("cpl.halo.msgs"); got != "cpl.halo.msgs" {
		t.Errorf("no-label form = %q", got)
	}
	name := Labeled("cpl.halo.msgs", "component", "ocn")
	if name != `cpl.halo.msgs{component="ocn"}` {
		t.Errorf("canonical form = %q", name)
	}
	multi := Labeled("x", "a", "1", "b", "2")
	if multi != `x{a="1",b="2"}` {
		t.Errorf("multi-label form = %q", multi)
	}
	base, labels := SplitLabels(name)
	if base != "cpl.halo.msgs" || labels != `component="ocn"` {
		t.Errorf("SplitLabels = %q, %q", base, labels)
	}
	if b, l := SplitLabels("plain.name"); b != "plain.name" || l != "" {
		t.Errorf("unlabeled split = %q, %q", b, l)
	}
	defer func() {
		if recover() == nil {
			t.Error("odd kv accepted")
		}
	}()
	Labeled("x", "key-without-value")
}

// The Prometheus renderer keeps labeled counters in one metric family: the
// label body moves into the series' braces alongside the rank label, so the
// unified cpl.halo.* counters render as one family with a component label.
func TestPromRenderSplitsLabeledCounters(t *testing.T) {
	sink := NewPromText()
	o := New(3, sink)
	o.AddCount(Labeled("cpl.halo.msgs", "component", "ocn"), 7)
	o.AddCount(Labeled("cpl.halo.msgs", "component", "atm"), 5)
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
