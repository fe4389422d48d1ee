package core

import (
	"fmt"
	"math"
	"os"
	"slices"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pario"
)

// Restart support: the coupled model checkpoints through the §5.2.5
// subfile-partitioned parallel I/O and resumes bit-for-bit. Distributed
// ocean/ice fields are written as per-row chunks of the global index space
// by every rank. One rank writes the atmosphere and land states whole;
// decomposed, every rank writes the chunks it owns — the runs of its
// owned cells, the runs of its owned edges, and the runs of its owned land
// slots — so the checkpoint is a rank-count-independent global image
// either way. Each rank reads the whole (small) restart set back and keeps
// its own region, which also makes restarts valid across rank counts.

// restartMeta packs the counters a resumed run must reinstate.
const metaField = "meta"

// The atmosphere's 3-D fields are written in the model's own column-major
// order (a run of owned cells or edges is one chunk of whole columns). They
// carry names of their own: a checkpoint written level-major before the
// layout changed has the same lengths, and must fail with a missing field
// rather than be read into the wrong levels.
const (
	atmTField        = "atm.t.col"
	atmQvField       = "atm.qv.col"
	atmUField        = "atm.u.col"
	atmFluxEdgeField = "atm.fluxedge.col"
)

// WriteRestart checkpoints the full coupled state into dir as nGroups
// binary subfiles. It must be called at a coupling boundary (between Step
// calls), which is the only time the driver is quiescent.
//
// A checkpoint is a capture followed by a commit. The capture copies every
// value this rank owns into one flat image; the commit encodes and writes
// that image and swaps it into place. WriteRestart runs the two back to
// back; RunResilient runs the commit on a writer goroutine while the model
// steps on. Collective: all ranks participate and agree on the outcome.
func (e *ESM) WriteRestart(dir string, nGroups int) error {
	l, err := newRestartLayout(e)
	if err != nil {
		return err
	}
	return commitRestart(e.Comm, dir, nGroups, newRestartImage(l).capture(e), e.obs)
}

// commitRestart writes captured restart fields as the set in dir. The write
// is atomic end-to-end: subfiles land in a staging directory that is swapped
// into place only after every writer group has succeeded, so a crash or
// injected I/O error mid-checkpoint never clobbers the previous good restart
// set. Collective over c; every rank returns the same verdict.
func commitRestart(c *par.Comm, dir string, nGroups int, fields []pario.Field, o obs.Observer) error {
	staging := dir + ".staging"
	var prep error
	if c.Rank() == 0 {
		os.RemoveAll(staging)
		prep = os.MkdirAll(staging, 0o755)
	}
	c.Barrier()

	werr := prep
	if werr == nil {
		werr = pario.WriteSubfilesTo(c, staging, nGroups, fields, o)
	}
	// Collective agreement: the swap happens only if every group leader
	// succeeded, and every rank reports the same verdict.
	bad := 0.0
	if werr != nil {
		bad = 1
	}
	if c.Allreduce(bad, par.OpMax) != 0 {
		if c.Rank() == 0 {
			os.RemoveAll(staging)
		}
		c.Barrier()
		if werr != nil {
			return werr
		}
		return fmt.Errorf("core: checkpoint to %s failed on another rank", dir)
	}
	var cerr error
	if c.Rank() == 0 {
		cerr = commitRestartSet(staging, dir)
	}
	bad = 0
	if cerr != nil {
		bad = 1
	}
	if c.Allreduce(bad, par.OpMax) != 0 {
		if cerr != nil {
			return cerr
		}
		return fmt.Errorf("core: checkpoint commit to %s failed on rank 0", dir)
	}
	o.AddCount("restart.checkpoints", 1)
	return nil
}

// commitRestartSet swaps a fully-written staging directory into place. The
// previous set is parked at dir+".old" for the instant between the two
// renames and restored on failure, so no crash point leaves the final name
// holding a partial set.
func commitRestartSet(staging, dir string) error {
	old := dir + ".old"
	os.RemoveAll(old)
	if _, err := os.Stat(dir); err == nil {
		if err := os.Rename(dir, old); err != nil {
			return fmt.Errorf("core: parking previous restart set: %w", err)
		}
	}
	if err := os.Rename(staging, dir); err != nil {
		os.Rename(old, dir) // best-effort restore of the previous set
		return fmt.Errorf("core: committing restart set: %w", err)
	}
	os.RemoveAll(old)
	return nil
}

// restartVar names one restart field and the model array it holds.
type restartVar struct {
	name string
	arr  func(e *ESM) []float64
}

// The restart fields by shape. The ocean and ice ones share the ocean
// block's local layout: levels of LNI×LNJ with a halo ring.
var (
	ocnVars3 = []restartVar{
		{"ocn.u", func(e *ESM) []float64 { return e.Ocn.U }},
		{"ocn.v", func(e *ESM) []float64 { return e.Ocn.V }},
		{"ocn.t", func(e *ESM) []float64 { return e.Ocn.T }},
		{"ocn.s", func(e *ESM) []float64 { return e.Ocn.S }},
	}
	ocnVars2 = []restartVar{
		{"ocn.eta", func(e *ESM) []float64 { return e.Ocn.Eta }},
		{"ocn.ubar", func(e *ESM) []float64 { return e.Ocn.Ubar }},
		{"ocn.vbar", func(e *ESM) []float64 { return e.Ocn.Vbar }},
		{"ice.conc", func(e *ESM) []float64 { return e.Ice.Conc }},
		{"ice.thick", func(e *ESM) []float64 { return e.Ice.Thick }},
		{"ice.freezeheat", func(e *ESM) []float64 { return e.Ice.FreezeHeat }},
	}
	// One value per atmosphere cell.
	atmCellVars = []restartVar{
		{"atm.ps", func(e *ESM) []float64 { return e.Atm.Ps }},
		{"atm.sst", func(e *ESM) []float64 { return e.Atm.SST }},
		{"atm.icefrac", func(e *ESM) []float64 { return e.Atm.IceFrac }},
		{"atm.gsw", func(e *ESM) []float64 { return e.Atm.GSW }},
		{"atm.glw", func(e *ESM) []float64 { return e.Atm.GLW }},
		{"atm.precip", func(e *ESM) []float64 { return e.Atm.Precip }},
	}
	// Whole cell columns.
	atmColVars = []restartVar{
		{atmTField, func(e *ESM) []float64 { return e.Atm.T }},
		{atmQvField, func(e *ESM) []float64 { return e.Atm.Qv }},
	}
	atmUVar = restartVar{atmUField, func(e *ESM) []float64 { return e.Atm.U }}
	// The tracer-window accumulators, absent (nil) before the first substep.
	atmFluxEdgeVar = restartVar{atmFluxEdgeField, func(e *ESM) []float64 { edge, _ := e.Atm.FluxAccumulators(); return edge }}
	atmFluxDpsVar  = restartVar{"atm.fluxdps", func(e *ESM) []float64 { _, dps := e.Atm.FluxAccumulators(); return dps }}
	lndVars        = []restartVar{
		{"lnd.tsoil", func(e *ESM) []float64 { return e.Lnd.TSoil }},
		{"lnd.bucket", func(e *ESM) []float64 { return e.Lnd.Bucket }},
	}
	// The step counters, held identically by every rank; rank 0 writes them.
	metaVar = restartVar{metaField, func(e *ESM) []float64 {
		return []float64{float64(e.couplingSteps), float64(e.Atm.Steps()), float64(e.Ocn.Steps())}
	}}
)

// restartLayout is which restart chunks this rank contributes, derived once
// from the decompositions: a handful of parts, each one field's share as the
// rows of an ocean block or as runs of a global index space. It holds no
// state, so it serves any model assembled with the same configuration on the
// same communicator — every model RunResilient rebuilds.
//
// Ocean and ice fields go out one chunk per local row: every rank writes its
// owned rows, and rank 0 also writes zero rows for the land-eliminated
// blocks no rank owns (ocean and ice fields are identically zero over land,
// and pario.ReadGlobal requires every element covered exactly once). The
// atmosphere and land go out as runs. On one rank a run is the whole array;
// decomposed, owned cells, owned edges and owned land slots each partition
// their global index space across ranks and are scattered id lists, written
// as their grid.Runs chunks — so the union of chunks is one global image,
// bit-identical to what one rank writes.
type restartLayout struct {
	parts []restartPart
	size  int // values captured when every part is present

	nx, ny, lni, lnj, halo int       // ocean grid and local block geometry
	zero                   []float64 // the rows of land-eliminated blocks
}

// restartPart is one field's share of this rank's image. Ocean parts cover
// rows [j0, j0+nj) × columns [i0, i0+ni) on nlev levels (dry: zeros, read
// from no array); the others cover runs of the global index space, stride
// values per index, read from the array at the runs' local starts at (the
// global starts when at is nil).
type restartPart struct {
	v      restartVar
	global int

	i0, j0, ni, nj, nlev int
	dry                  bool

	runs   [][2]int
	at     []int
	stride int
}

func (p *restartPart) values() int {
	if p.runs == nil {
		return p.nlev * p.nj * p.ni
	}
	n := 0
	for _, r := range p.runs {
		n += r[1] * p.stride
	}
	return n
}

// newRestartLayout derives the layout of e's decompositions. A decomposed
// atmosphere must expose its owned edges: the U columns are written by
// their owners.
func newRestartLayout(e *ESM) (*restartLayout, error) {
	o, m := e.Ocn, e.Atm
	b, g := o.B, o.G
	l := &restartLayout{nx: g.NX, ny: g.NY, lni: o.LNI, lnj: o.LNJ, halo: b.H}
	n2g := g.NX * g.NY
	rows := func(i0, j0, ni, nj int, dry bool) {
		for _, v := range ocnVars3 {
			l.parts = append(l.parts, restartPart{v: v, global: o.NL * n2g, i0: i0, j0: j0, ni: ni, nj: nj, nlev: o.NL, dry: dry})
		}
		for _, v := range ocnVars2 {
			l.parts = append(l.parts, restartPart{v: v, global: n2g, i0: i0, j0: j0, ni: ni, nj: nj, nlev: 1, dry: dry})
		}
	}
	rows(b.I0, b.J0, b.NI, b.NJ, false)
	if e.Comm.Rank() == 0 {
		for _, db := range b.DryBlocks() {
			rows(db.I0, db.J0, db.NI, db.NJ, true)
			l.zero = make([]float64, max(len(l.zero), db.NI))
		}
	}

	nc64, ne64, _ := grid.IcosCounts(m.Mesh.Level)
	nc, ne, nlev, nslot := int(nc64), int(ne64), m.NLev, e.lnd.total
	cells, edges, slots := [][2]int{{0, nc}}, [][2]int{{0, ne}}, [][2]int{{0, nslot}}
	var cellsAt, edgesAt, slotsAt []int
	if d := m.Decomp(); d != nil {
		own := make([]int, len(e.lnd.own))
		for i, slot := range e.lnd.own {
			own[i] = int(e.lnd.slot[slot])
		}
		cells, edges, slots = d.OwnedRanges(), grid.Runs(d.OwnEdges()), grid.Runs(own)
		// The atmosphere holds its patch and the land its patch's columns: a
		// run of consecutive owned global ids is a run of consecutive local
		// ids, starting at its first id's.
		for _, r := range cells {
			cellsAt = append(cellsAt, d.LocalCell(r[0]))
		}
		for _, r := range edges {
			edgesAt = append(edgesAt, d.LocalEdge(r[0]))
		}
		for _, r := range slots {
			i, _ := slices.BinarySearch(own, r[0])
			slotsAt = append(slotsAt, e.lnd.own[i])
		}
	}
	runs := func(v restartVar, global int, rs [][2]int, at []int, stride int) {
		l.parts = append(l.parts, restartPart{v: v, global: global, runs: rs, at: at, stride: stride})
	}
	for _, v := range atmCellVars {
		runs(v, nc, cells, cellsAt, 1)
	}
	for _, v := range atmColVars {
		runs(v, nlev*nc, cells, cellsAt, nlev)
	}
	runs(atmUVar, nlev*ne, edges, edgesAt, nlev)
	runs(atmFluxEdgeVar, nlev*ne, edges, edgesAt, nlev)
	runs(atmFluxDpsVar, nc, cells, cellsAt, 1)
	for _, v := range lndVars {
		runs(v, nslot, slots, slotsAt, 1)
	}
	if e.Comm.Rank() == 0 {
		n := len(metaVar.arr(e))
		runs(metaVar, n, [][2]int{{0, n}}, nil, 1)
	}
	for i := range l.parts {
		if !l.parts[i].dry {
			l.size += l.parts[i].values()
		}
	}
	return l, nil
}

// restartImage is one rank's captured restart state: every value it owns in
// one flat buffer, and the pario fields that slice it.
type restartImage struct {
	l      *restartLayout
	buf    []float64
	fields []pario.Field
}

func newRestartImage(l *restartLayout) *restartImage {
	return &restartImage{l: l, buf: make([]float64, l.size)}
}

// capture copies e's restart state into the image and returns the fields
// over it, valid until the next capture. It must run at a coupling
// boundary; the copy is the only part of a checkpoint that reads the model.
func (img *restartImage) capture(e *ESM) []pario.Field {
	l := img.l
	img.fields = img.fields[:0]
	off := 0
	add := func(p *restartPart, start int, data []float64) {
		img.fields = append(img.fields, pario.Field{Name: p.v.name, Global: p.global, Start: start, Data: data})
	}
	take := func(p *restartPart, start int, src []float64) {
		data := img.buf[off : off+len(src) : off+len(src)]
		off += copy(data, src)
		add(p, start, data)
	}
	for i := range l.parts {
		p := &l.parts[i]
		if p.dry {
			for k := 0; k < p.nlev; k++ {
				for lj := 0; lj < p.nj; lj++ {
					add(p, (k*l.ny+p.j0+lj)*l.nx+p.i0, l.zero[:p.ni])
				}
			}
			continue
		}
		arr := p.v.arr(e)
		if arr == nil {
			continue // flux accumulators before the first substep
		}
		if p.runs != nil {
			for i, r := range p.runs {
				from := r[0]
				if p.at != nil {
					from = p.at[i]
				}
				lo, n := from*p.stride, r[1]*p.stride
				take(p, r[0]*p.stride, arr[lo:lo+n])
			}
			continue
		}
		for k := 0; k < p.nlev; k++ {
			for lj := 0; lj < p.nj; lj++ {
				s := k*l.lni*l.lnj + (lj+l.halo)*l.lni + l.halo
				take(p, (k*l.ny+p.j0+lj)*l.nx+p.i0, arr[s:s+p.ni])
			}
		}
	}
	return img.fields
}

// ReadRestart loads a checkpoint written by WriteRestart into a freshly
// constructed ESM with the same configuration and clock interval. Every
// rank reads the subfile set and keeps its own region; the coupling clock
// is fast-forwarded to the checkpointed step so alarm phasing is preserved.
func (e *ESM) ReadRestart(dir string, nGroups int) error {
	if e.couplingSteps != 0 {
		return fmt.Errorf("core: ReadRestart requires a freshly constructed ESM")
	}
	global, err := pario.ReadGlobal(pario.SubfilePaths(dir, nGroups))
	if err != nil {
		return err
	}
	return e.restore(global)
}

// restore loads a restart set's global fields, by name, into a freshly
// constructed ESM (see ReadRestart). Fields the model no longer reads are
// ignored, so a set written before they were retired still loads.
func (e *ESM) restore(global map[string][]float64) error {
	need := func(name string) ([]float64, error) {
		f, ok := global[name]
		if !ok {
			return nil, fmt.Errorf("core: restart missing field %q", name)
		}
		return f, nil
	}

	meta, err := need(metaField)
	if err != nil {
		return err
	}
	if len(meta) != 3 {
		return fmt.Errorf("core: corrupt restart metadata")
	}
	couplingSteps := int(meta[0])
	atmSteps := int(meta[1])
	ocnSteps := int(meta[2])

	// --- Atmosphere + land (every rank restores what it holds: the whole
	// arrays on one rank, the atmosphere's patch and its land columns when
	// decomposed) ---
	m := e.Atm
	nc64, ne64, _ := grid.IcosCounts(m.Mesh.Level)
	nc, ne, nlev := int(nc64), int(ne64), m.NLev
	cells, edges := m.Mesh.GlobalCell, m.Mesh.GlobalEdge
	for _, set := range []struct {
		vs        []restartVar
		ids       []int32 // the global ids or slots of the local columns (nil: all)
		n, stride int     // global columns, values per column
	}{
		{atmCellVars, cells, nc, 1}, {atmColVars, cells, nc, nlev},
		{[]restartVar{atmUVar}, edges, ne, nlev}, {lndVars, e.lnd.slot, e.lnd.total, 1},
	} {
		for _, v := range set.vs {
			f, err := need(v.name)
			if err != nil {
				return err
			}
			if len(f) != set.n*set.stride {
				return fmt.Errorf("core: restart field %q has %d values, want %d", v.name, len(f), set.n*set.stride)
			}
			copy(v.arr(e), patchOf(f, set.ids, set.stride))
		}
	}
	edge, eok := global[atmFluxEdgeField]
	dps, dok := global["atm.fluxdps"]
	if eok != dok {
		missing := atmFluxEdgeField
		if eok {
			missing = "atm.fluxdps"
		}
		return fmt.Errorf("core: restart has one flux accumulator but is missing field %q", missing)
	}
	if eok && len(edge) == nlev*ne && len(dps) == nc {
		edge, dps = patchOf(edge, edges, nlev), patchOf(dps, cells, 1)
	}
	if err := m.RestoreState(atmSteps, edge, dps); err != nil {
		return fmt.Errorf("core: restart fields %q/\"atm.fluxdps\": %w", atmFluxEdgeField, err)
	}

	// --- Ocean + ice (each rank keeps its block) ---
	o := e.Ocn
	b := o.B
	g := o.G
	n2g := g.NX * g.NY
	put := func(v restartVar, nlev int) error {
		f, err := need(v.name)
		if err != nil {
			return err
		}
		if len(f) != nlev*n2g {
			return fmt.Errorf("core: restart field %q size %d", v.name, len(f))
		}
		dst := v.arr(e)
		for k := 0; k < nlev; k++ {
			for lj := 0; lj < b.NJ; lj++ {
				for li := 0; li < b.NI; li++ {
					dst[k*o.LNI*o.LNJ+e.ocnIdx2(li, lj)] = f[(k*g.NY+(b.J0+lj))*g.NX+b.I0+li]
				}
			}
		}
		return nil
	}
	for _, v := range ocnVars3 {
		if err := put(v, o.NL); err != nil {
			return err
		}
	}
	for _, v := range ocnVars2 {
		if err := put(v, 1); err != nil {
			return err
		}
	}
	o.SetSteps(ocnSteps)

	// --- Clock fast-forward preserves alarm phasing ---
	for i := 0; i < couplingSteps; i++ {
		if _, ok := e.Clock.Advance(); !ok {
			return fmt.Errorf("core: restart step %d beyond the clock interval", couplingSteps)
		}
	}
	e.couplingSteps = couplingSteps

	// Validate the restored state is finite.
	for _, v := range m.Ps {
		if math.IsNaN(v) {
			return fmt.Errorf("core: restart contains NaN surface pressure")
		}
	}
	return nil
}

// patchOf returns a global field's share of the atmosphere's patch
// (grid.PatchColumns); nil ids (one rank) return f itself.
func patchOf(f []float64, ids []int32, stride int) []float64 {
	if ids == nil {
		return f
	}
	return grid.PatchColumns(f, ids, stride)
}
