package core

import (
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/pario"
	"repro/internal/pp"
)

// Every field a checkpoint writes is state a later step reads: a field
// nothing reads costs its share of every checkpoint's capture, write and
// read, and of every rollback, for nothing. The contract is generated from
// the restart layout, not from a list. At each phase of one ocean-coupling
// interval the unperturbed model's image is restored into a fresh model
// with one field (the step counters aside) perturbed, the model steps six
// more times, and the field is read if some step's image differs from the
// unperturbed trajectory in some other field. The reference trajectory is
// captured once, step by step, and each field stops at its first live
// phase, so only a field no phase reads costs all five phases.
func TestEveryCheckpointFieldIsRead(t *testing.T) {
	const after = 6 // steps a perturbation has to reach another field
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	phases := cfg.AtmCouplingsPerDay / cfg.OcnCouplingsPerDay
	par.Run(1, func(c *par.Comm) {
		mk := func() *ESM {
			e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		// The phases start one step in, once the tracer-window flux
		// accumulators exist, so every phase writes the same fields.
		e := mk()
		e.Step()
		l, err := newRestartLayout(e)
		if err != nil {
			t.Fatal(err)
		}
		img := newRestartImage(l)
		ref := make([][]pario.Field, phases+after)
		for i := range ref {
			if i > 0 {
				e.Step()
			}
			ref[i] = cloneFields(img.capture(e))
		}

		read := func(name string) bool {
			for p := 0; p < phases; p++ {
				g := imageGlobal(ref[p])
				for i, x := range g[name] {
					g[name][i] = x + 1e-3*(1+math.Abs(x))
				}
				f := mk()
				if err := f.restore(g); err != nil {
					t.Fatalf("phase %d, %s perturbed: %v", p, name, err)
				}
				for k := 1; k <= after; k++ {
					f.Step()
					if changedBesides(t, img.capture(f), ref[p+k], name) {
						return true
					}
				}
			}
			return false
		}
		var unread []string
		for _, name := range fieldNames(ref[0]) {
			if name != metaField && !read(name) {
				unread = append(unread, name)
			}
		}
		if len(unread) > 0 {
			t.Errorf("no later step reads checkpoint fields %v", unread)
		}
	})
}

// cloneFields copies captured restart fields out of the image they slice.
func cloneFields(fields []pario.Field) []pario.Field {
	out := make([]pario.Field, len(fields))
	for i, f := range fields {
		f.Data = append([]float64(nil), f.Data...)
		out[i] = f
	}
	return out
}

// imageGlobal assembles a one-rank image's chunks into the global fields
// ReadRestart would read back, each in a fresh array.
func imageGlobal(fields []pario.Field) map[string][]float64 {
	g := map[string][]float64{}
	for _, f := range fields {
		if g[f.Name] == nil {
			g[f.Name] = make([]float64, f.Global)
		}
		copy(g[f.Name][f.Start:], f.Data)
	}
	return g
}

// fieldNames lists the distinct field names of an image in layout order.
func fieldNames(fields []pario.Field) []string {
	var names []string
	for i, f := range fields {
		if i == 0 || f.Name != fields[i-1].Name {
			names = append(names, f.Name)
		}
	}
	return names
}

// changedBesides reports whether any chunk of got outside field name
// differs, bit for bit, from the same chunk of want.
func changedBesides(t *testing.T, got, want []pario.Field, name string) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("image has %d chunks, the reference %d", len(got), len(want))
	}
	for i, f := range got {
		if f.Name == name {
			continue
		}
		for j, x := range f.Data {
			if math.Float64bits(x) != math.Float64bits(want[i].Data[j]) {
				return true
			}
		}
	}
	return false
}
