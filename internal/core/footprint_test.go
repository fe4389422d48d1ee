package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pp"
)

// globalTables names the only slices a decomposed rank may hold at a global
// length, as "package.Type.field", each with the reason it is global.
var globalTables = map[string]string{
	"grid.IcosDecomp.owner": "the owner of every atmosphere cell: Gather places every rank's chunk by it, and the atmosphere's radSkipped reads a halo cell's owner every step",
}

// A decomposed rank holds only its own tables. Everything reachable from
// the assembled model — skipping the communicator and funcs — is walked,
// and any slice whose length is a global count (the atmosphere's cells,
// edges or vertices, or the ocean's columns) fails the test unless
// globalTables names it: a table every rank holds in full is paid once per
// rank.
func TestRankHoldsNoGlobalTable(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	nc, ne, nv := grid.IcosCounts(cfg.AtmLevel)
	global := map[int]string{
		int(nc):               "atmosphere cells",
		int(ne):               "atmosphere edges",
		int(nv):               "atmosphere vertices",
		cfg.OcnNX * cfg.OcnNY: "ocean columns",
	}
	for _, ranks := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			found := make([][]string, ranks)
			par.Run(ranks, func(c *par.Comm) {
				e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithRemap(RemapCons), WithAudit(true))
				if err != nil {
					t.Error(err)
					return
				}
				e.Step()
				w := tableWalk{global: global, seen: map[uintptr]bool{}}
				w.walk(reflect.ValueOf(e), "e")
				found[c.Rank()] = w.found
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
// global-length slices globalTables does not name.
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
			f := t.Field(i)
			name := fmt.Sprintf("%s.%s", t.String(), f.Name)
			if v.Field(i).Kind() == reflect.Slice && globalTables[name] != "" {
				continue
			}
			w.walk(v.Field(i), path+"."+f.Name)
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
