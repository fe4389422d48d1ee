package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
)

// A decomposed rank holds only its own tables, from assembly on. Everything
// reachable from the model — skipping the communicator and funcs — is
// walked right after NewWithOptions and again after a step, and any slice
// whose length is a global count fails the test: the atmosphere's cells
// (the owner table among them), edges or vertices, the ocean's columns, or
// the model's land columns. A table every rank holds in full is paid once
// per rank.
func TestRankHoldsNoGlobalTable(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	nc, ne, nv := grid.IcosCounts(cfg.AtmLevel)
	var landCols int
	par.Run(1, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}))
		if err != nil {
			t.Error(err)
			return
		}
		landCols = len(e.Lnd.Cells)
	})
	global := map[int]string{
		int(nc):               "atmosphere cell (the owner table's length)",
		int(ne):               "atmosphere edge",
		int(nv):               "atmosphere vertex",
		cfg.OcnNX * cfg.OcnNY: "ocean column",
		landCols:              "land column of the model",
	}
	for _, ranks := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			found := make([][]string, ranks)
			par.Run(ranks, func(c *par.Comm) {
				e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithAudit(true))
				if err != nil {
					t.Error(err)
					return
				}
				for _, when := range []string{"assembled", "stepped"} {
					if when == "stepped" {
						e.Step()
					}
					w := tableWalk{global: global, seen: map[uintptr]bool{}}
					w.walk(reflect.ValueOf(e), when+": e")
					found[c.Rank()] = append(found[c.Rank()], w.found...)
				}
			})
			for r, f := range found {
				for _, s := range f {
					t.Errorf("rank %d holds %s", r, s)
				}
			}
		})
	}
}

// tableWalk visits every value reachable from a root once, recording the
// global-length slices.
type tableWalk struct {
	global map[int]string
	seen   map[uintptr]bool
	found  []string
}

var commType = reflect.TypeOf((*par.Comm)(nil))

func (w *tableWalk) walk(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type() == commType || w.seen[v.Pointer()] {
			return
		}
		w.seen[v.Pointer()] = true
		w.walk(v.Elem(), path)
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(v.Elem(), path)
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i), path+"."+t.Field(i).Name)
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice {
			if v.IsNil() {
				return
			}
			if what, ok := w.global[v.Len()]; ok {
				w.found = append(w.found, fmt.Sprintf("%s: %d values, one per %s", path, v.Len(), what))
			}
		}
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array, reflect.Map:
			for i := 0; i < v.Len(); i++ {
				w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			w.walk(it.Value(), path+"[…]")
		}
	}
}

// Set-up is paid per patch: what NewWithOptions allocates per rank, net of
// the whole mesh's topology that every rank still builds, falls with the
// rank count. At 6v3 a rank of eight allocates at most 0.3× of what one
// rank does besides the mesh, and at 25v10 a rank of two allocates no more
// than one rank in all.
func TestSetupAllocationScalesWithPatch(t *testing.T) {
	for _, tc := range []struct {
		label string
		ranks int
		ratio float64 // bound on the rank's net allocation over one rank's
		net   bool    // compare net of the mesh
	}{
		{"6v3", 8, 0.3, true},
		{"25v10", 2, 1, false},
	} {
		cfg, err := ConfigForLabel(tc.label)
		if err != nil {
			t.Fatal(err)
		}
		mesh := 0.0
		if tc.net {
			mesh = meshAlloc(t, cfg.AtmLevel)
		}
		r1, rn := setupAlloc(t, cfg, 1)-mesh, setupAlloc(t, cfg, tc.ranks)-mesh
		t.Logf("%s: %.0f B per rank on 1 rank, %.0f on %d (mesh %.0f B excluded)", tc.label, r1, rn, tc.ranks, mesh)
		if rn > tc.ratio*r1 {
			t.Errorf("%s: a rank of %d allocates %.0f B at set-up, want ≤ %.2f × one rank's %.0f B", tc.label, tc.ranks, rn, tc.ratio, r1)
		}
	}
}
