package atmos

import (
	"reflect"
	"runtime"
	"testing"
	"weak"

	"repro/internal/grid"
	"repro/internal/par"
)

// haloCells returns the ring-1 halo of the decomposition d in global ids,
// ascending: the patch cells this rank does not own.
func haloCells(d *grid.IcosDecomp) []int {
	var out []int
	for lc, g := range d.Patch.GlobalCell {
		if !d.Owns(lc) {
			out = append(out, int(g))
		}
	}
	return out
}

// patchModel builds the model on c's rank's patch of the level's mesh.
func patchModel(level, nlev int, cfg Config, c *par.Comm) (*Model, error) {
	mesh, err := grid.NewIcosMesh(level)
	if err != nil {
		return nil, err
	}
	d, err := grid.NewPatchDecomp(mesh, grid.IcosOwners(mesh, c.Size()), c)
	if err != nil {
		return nil, err
	}
	return NewPatch(mesh, d, nlev, cfg, nil)
}

// patchOf builds c's rank's patch model of whole's mesh and copies whole's
// prognostic state into it by global id: whole decomposed as it stands.
func patchOf(whole *Model, c *par.Comm) (*Model, error) {
	d, err := grid.NewPatchDecomp(whole.Mesh, grid.IcosOwners(whole.Mesh, c.Size()), c)
	if err != nil {
		return nil, err
	}
	m, err := NewPatch(whole.Mesh, d, whole.NLev, whole.Cfg, whole.Sp)
	if err != nil {
		return nil, err
	}
	p := m.Mesh
	copy(m.Ps, grid.PatchColumns(whole.Ps, p.GlobalCell, 1))
	copy(m.T, grid.PatchColumns(whole.T, p.GlobalCell, m.NLev))
	copy(m.Qv, grid.PatchColumns(whole.Qv, p.GlobalCell, m.NLev))
	copy(m.U, grid.PatchColumns(whole.U, p.GlobalEdge, m.NLev))
	return m, nil
}

// TestDecomposedMatchesReplicated pins the tentpole equivalence at the
// component level: a decomposed atmosphere stepped on 2 and 4 ranks produces
// bit-for-bit the serial answer on every owned cell and edge, across enough
// model steps to cover several tracer and physics firings.
func TestDecomposedMatchesReplicated(t *testing.T) {
	const level, nlev, modelSteps = 2, 6, 3
	cfg := DefaultConfig()

	ref, err := New(level, nlev, cfg, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < modelSteps; i++ {
		ref.StepModel()
	}

	for _, ranks := range []int{2, 4} {
		par.Run(ranks, func(c *par.Comm) {
			m, err := patchModel(level, nlev, cfg, c)
			if err != nil {
				t.Errorf("patchModel: %v", err)
				return
			}
			d := m.Decomp()
			for i := 0; i < modelSteps; i++ {
				m.StepModel()
			}
			// The decomposed model holds its patch: global ids go through
			// the patch's local ids.
			for _, c2 := range d.Owned {
				l := d.LocalCell(c2)
				if m.Ps[l] != ref.Ps[c2] {
					t.Errorf("ranks=%d rank %d: Ps[%d] = %v, want %v", ranks, c.Rank(), c2, m.Ps[l], ref.Ps[c2])
					return
				}
				for k := 0; k < nlev; k++ {
					i := m.Idx(c2, k)
					if m.T[m.Idx(l, k)] != ref.T[i] || m.Qv[m.Idx(l, k)] != ref.Qv[i] {
						t.Errorf("ranks=%d rank %d: T/Qv mismatch at cell %d lev %d", ranks, c.Rank(), c2, k)
						return
					}
				}
				for _, f := range [][2][]float64{
					{m.Precip, ref.Precip}, {m.GSW, ref.GSW}, {m.GLW, ref.GLW},
				} {
					if f[0][l] != f[1][c2] {
						t.Errorf("ranks=%d rank %d: physics export mismatch at cell %d", ranks, c.Rank(), c2)
						return
					}
				}
			}
			for _, e := range d.OwnEdges() {
				for k := 0; k < nlev; k++ {
					if i, l := m.Idx(e, k), m.Idx(d.LocalEdge(e), k); m.U[l] != ref.U[i] {
						t.Errorf("ranks=%d rank %d: U[%d] lev %d = %v, want %v", ranks, c.Rank(), e, k, m.U[l], ref.U[i])
						return
					}
				}
			}
			// The halo must mirror its owners bit-for-bit too — that is what
			// makes the redundant physics columns safe.
			for _, h := range haloCells(d) {
				if l := d.LocalCell(h); m.Ps[l] != ref.Ps[h] {
					t.Errorf("ranks=%d rank %d: halo Ps[%d] = %v, want %v", ranks, c.Rank(), h, m.Ps[l], ref.Ps[h])
					return
				}
			}
		})
	}
}

// TestDecomposedModelHoldsOnlyItsPatch checks what a decomposed model
// stores: built on its patch and stepped on 2, 4 and 8 ranks, every
// per-cell, per-edge and per-vertex array of the model, its dycore scratch,
// its metric tables and its reconstructor has the patch's length (times the
// levels), and the whole mesh the model was built from is garbage.
func TestDecomposedModelHoldsOnlyItsPatch(t *testing.T) {
	const level, nlev = 3, 4
	for _, ranks := range []int{2, 4, 8} {
		par.Run(ranks, func(c *par.Comm) {
			mesh, err := grid.NewIcosMesh(level)
			if err != nil {
				t.Error(err)
				return
			}
			global := weak.Make(mesh)
			d, err := grid.NewPatchDecomp(mesh, grid.IcosOwners(mesh, ranks), c)
			if err != nil {
				t.Error(err)
				return
			}
			m, err := NewPatch(mesh, d, nlev, DefaultConfig(), nil)
			if err != nil {
				t.Error(err)
				return
			}
			mesh = nil
			m.StepModel() // the scratch and flux accumulators exist
			m.StepModel()
			p := m.Mesh
			nc, ne, nv, ns := p.NCells(), p.NEdges(), p.NVertices(), len(p.SlotEdge)
			if nv < nc {
				t.Errorf("rank %d: patch has %d vertices for %d cells; vort would be held at nc columns", c.Rank(), nv, nc)
			}
			s, g, eg, r := m.dy, m.dy.geo, m.dy.eg, m.recon
			for _, a := range []struct {
				name      string
				got, want int
			}{
				{"Ps", len(m.Ps), nc}, {"T", len(m.T), nc * nlev}, {"Qv", len(m.Qv), nc * nlev}, {"U", len(m.U), ne * nlev},
				{"SST", len(m.SST), nc}, {"IceFrac", len(m.IceFrac), nc}, {"IsLand", len(m.IsLand), nc},
				{"Precip", len(m.Precip), nc}, {"GSW", len(m.GSW), nc}, {"GLW", len(m.GLW), nc},
				{"flux.edge", len(m.flux.edge), ne * nlev}, {"flux.dps", len(m.flux.dps), nc},
				{"dy.th", len(s.th), nc * nlev}, {"dy.lnPs", len(s.lnPs), nc}, {"dy.cd", len(s.cd), nc * nlev * cdW},
				{"dy.vort", len(s.vort), nv * nlev},
				{"geo.wX", len(g.wX), ns}, {"geo.wY", len(g.wY), ns}, {"geo.wZ", len(g.wZ), ns}, {"geo.sdv", len(g.sdv), ns},
				{"geo.areaRR", len(g.areaRR), nc}, {"geo.sdc", len(g.sdc), 3 * nv}, {"geo.dualRR", len(g.dualRR), nv},
				{"geo.tX", len(g.tX), ne}, {"geo.tY", len(g.tY), ne}, {"geo.tZ", len(g.tZ), ne},
				{"eg.rdcm", len(eg.rdcm), ne}, {"eg.rdvm", len(eg.rdvm), ne}, {"eg.fE", len(eg.fE), ne}, {"eg.damp", len(eg.damp), ne},
				{"recon.wX", len(r.wX), ns}, {"recon.wY", len(r.wY), ns}, {"recon.wZ", len(r.wZ), ns},
				{"recon.normal3", len(r.normal3), ne}, {"recon.east", len(r.east), nc}, {"recon.north", len(r.north), nc},
			} {
				if a.got != a.want {
					t.Errorf("%d ranks, rank %d: %s has %d values, want the patch's %d", ranks, c.Rank(), a.name, a.got, a.want)
				}
			}
			if g.mesh != p || r.mesh != p {
				t.Errorf("rank %d: the metric tables or the reconstructor read a mesh other than the patch", c.Rank())
			}
			runtime.GC()
			if global.Value() != nil {
				t.Errorf("%d ranks, rank %d: the whole mesh is still reachable from the patch model", ranks, c.Rank())
			}
		})
	}
}

// The dycore advances U in place: its scratch holds no edge-sized level
// array, U keeps one backing array across model steps, and the level-sized
// scratch is th, the cell diagnostics and the vorticity, which the
// continuity, tracer and physics steps borrow (the dyScratch comment). A
// kernel that needs another whole-field work array must change this count
// on purpose: at nlev 8 each edge-sized array is 192 B of live heap per
// atmosphere cell. Whole and decomposed on 2 ranks.
func TestDycoreScratchFootprint(t *testing.T) {
	const level, nlev = 3, 8
	for _, ranks := range []int{1, 2} {
		par.Run(ranks, func(c *par.Comm) {
			m, err := New(level, nlev, DefaultConfig(), nil)
			if ranks > 1 {
				m, err = patchModel(level, nlev, DefaultConfig(), c)
			}
			if err != nil {
				t.Error(err)
				return
			}
			m.StepModel() // the scratch exists
			u0 := &m.U[0]
			m.StepModel()
			if &m.U[0] != u0 {
				t.Errorf("%d ranks, rank %d: StepModel moved U to another backing array", ranks, c.Rank())
			}
			p := m.Mesh
			nc, ne, nv := p.NCells(), p.NEdges(), p.NVertices()
			var values int // float64 values in level-sized scratch
			s := reflect.ValueOf(m.dy).Elem()
			for i := 0; i < s.NumField(); i++ {
				f := s.Field(i)
				if f.Kind() != reflect.Slice || f.Type().Elem().Kind() == reflect.Int {
					continue // the iteration sets alias the decomposition's lists
				}
				n := f.Len() * int(f.Type().Elem().Size()) / 8
				if n == ne*nlev {
					t.Errorf("%d ranks, rank %d: scratch field %s holds ne·nlev = %d values",
						ranks, c.Rank(), s.Type().Field(i).Name, n)
				}
				if n >= nc*nlev {
					values += n
				}
			}
			if want := (2+cdW)*nc*nlev + max(nv, nc)*nlev; values != want {
				t.Errorf("%d ranks, rank %d: level-sized scratch holds %d values, want th + cd + vort = %d",
					ranks, c.Rank(), values, want)
			}
		})
	}
}
