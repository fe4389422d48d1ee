package pp

import (
	"strings"
	"testing"
)

// Satellite: hash-collision and double-registration behavior, pinned.
// Real FNV-1a collisions are infeasible to mine, so the collision branch is
// driven through registerHashed with a forced hash.
func TestRegistryCollisionAndDoubleRegistration(t *testing.T) {
	reg := NewRegistry()
	nop := func(Space, any) {}
	ran := 0
	h, err := reg.registerHashed(0xdead, "ocn.momentum", func(Space, any) { ran++ })
	if err != nil || h != 0xdead {
		t.Fatalf("registerHashed: %v", err)
	}
	// Different name, same hash: the collision error, naming both kernels.
	_, err = reg.registerHashed(0xdead, "atm.momentum", nop)
	if err == nil || !strings.Contains(err.Error(), "hash collision") ||
		!strings.Contains(err.Error(), "ocn.momentum") || !strings.Contains(err.Error(), "atm.momentum") {
		t.Fatalf("collision error = %v", err)
	}
	// Same name twice: the double-registration error, not a collision.
	_, err = reg.registerHashed(0xdead, "ocn.momentum", nop)
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("double-registration error = %v", err)
	}
	// Neither failure clobbered the original registration.
	if len(reg.byHash) != 1 || reg.byHash[0xdead].name != "ocn.momentum" {
		t.Fatalf("registry holds %d kernels after failed registrations", len(reg.byHash))
	}
	if err := reg.Launch(0xdead, Serial{}, nil); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("original kernel ran %d times, want 1", ran)
	}
}

// Registered kernels launched on an instrumented space report per-kernel
// counts to that space's observer — the per-model accounting path the
// coupled model uses (core wraps its space with pp.Instrument).
func TestLaunchCountsOnInstrumentedSpace(t *testing.T) {
	regObs, spObs := newRecordObserver(), newRecordObserver()
	reg := NewRegistry()
	reg.SetObserver(regObs)
	h := reg.MustRegister("ocn.continuity", func(s Space, _ any) {
		s.ParallelFor(4, func(int) {})
	})
	sp := Instrument(Serial{}, spObs)
	for i := 0; i < 2; i++ {
		if err := reg.Launch(h, sp, nil); err != nil {
			t.Fatal(err)
		}
	}
	if regObs.counts["pp.kernel.ocn.continuity"] != 2 {
		t.Errorf("registry observer counts = %v", regObs.counts)
	}
	if spObs.counts["pp.kernel.ocn.continuity"] != 2 {
		t.Errorf("space observer counts = %v", spObs.counts)
	}
	if spObs.counts["pp.for.launches"] != 2 {
		t.Errorf("inner launches not counted: %v", spObs.counts)
	}
}

func TestBindView3(t *testing.T) {
	buf := make([]float64, 2*3*4)
	v := BindView3("u", buf, 2, 3, 4)
	v.Data[(1*v.NJ+2)*v.NI+3] = 42
	if buf[(1*3+2)*4+3] != 42 {
		t.Fatal("view writes must land in the caller's buffer")
	}
	if v.NK != 2 || v.NJ != 3 || v.NI != 4 || v.Label != "u" {
		t.Fatalf("view extents (%d,%d,%d) %q", v.NK, v.NJ, v.NI, v.Label)
	}
	defer func() {
		if recover() == nil {
			t.Error("extent mismatch must panic at bind time")
		}
	}()
	BindView3("bad", buf, 2, 3, 5)
}
