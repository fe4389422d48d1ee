package core

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/grid"
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
// The write is atomic end-to-end: subfiles land in a staging directory that
// is swapped into place only after every writer group has succeeded, so a
// crash or injected I/O error mid-checkpoint never clobbers the previous
// good restart set. Collective: all ranks participate and agree on the
// outcome.
func (e *ESM) WriteRestart(dir string, nGroups int) error {
	fields := e.restartFields()
	staging := dir + ".staging"
	var prep error
	if e.Comm.Rank() == 0 {
		os.RemoveAll(staging)
		prep = os.MkdirAll(staging, 0o755)
	}
	e.Comm.Barrier()

	werr := prep
	if werr == nil {
		werr = pario.WriteSubfilesTo(e.Comm, staging, nGroups, fields, e.obs)
	}
	// Collective agreement: the swap happens only if every group leader
	// succeeded, and every rank reports the same verdict.
	bad := 0.0
	if werr != nil {
		bad = 1
	}
	if e.Comm.Allreduce(bad, par.OpMax) != 0 {
		if e.Comm.Rank() == 0 {
			os.RemoveAll(staging)
		}
		e.Comm.Barrier()
		if werr != nil {
			return werr
		}
		return fmt.Errorf("core: checkpoint to %s failed on another rank", dir)
	}
	var cerr error
	if e.Comm.Rank() == 0 {
		cerr = commitRestartSet(staging, dir)
	}
	bad = 0
	if cerr != nil {
		bad = 1
	}
	if e.Comm.Allreduce(bad, par.OpMax) != 0 {
		if cerr != nil {
			return cerr
		}
		return fmt.Errorf("core: checkpoint commit to %s failed on rank 0", dir)
	}
	if e.obs != nil {
		e.obs.AddCount("restart.checkpoints", 1)
	}
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

// restartFields flattens the coupled state into pario fields: ocean/ice
// rows and the owned atmosphere/land chunks from every rank.
func (e *ESM) restartFields() []pario.Field {
	var fields []pario.Field

	// --- Distributed ocean and ice fields, one chunk per local row ---
	// Every rank writes its owned rows, and rank 0 additionally writes
	// zero-filled rows for the land-eliminated blocks no rank owns — ocean
	// and ice fields are identically zero over land, and pario.ReadGlobal
	// requires every element covered exactly once.
	o := e.Ocn
	b := o.B
	g := o.G
	n2g := g.NX * g.NY
	addRow := func(name string, global int, gStart int, data []float64) {
		fields = append(fields, pario.Field{Name: name, Global: global, Start: gStart, Data: data})
	}
	rowOf := func(src []float64, k, lj int) []float64 {
		out := make([]float64, b.NI)
		for li := 0; li < b.NI; li++ {
			out[li] = src[k*o.LNI*o.LNJ+e.ocnIdx2(li, lj)]
		}
		return out
	}
	ocnF3 := []struct {
		name string
		data []float64
	}{
		{"ocn.u", o.U}, {"ocn.v", o.V}, {"ocn.t", o.T}, {"ocn.s", o.S},
	}
	ocnF2 := []struct {
		name string
		data []float64
	}{
		{"ocn.eta", o.Eta}, {"ocn.ubar", o.Ubar}, {"ocn.vbar", o.Vbar},
		{"ocn.taux", o.TauX}, {"ocn.tauy", o.TauY},
		{"ocn.qheat", o.QHeat}, {"ocn.fw", o.FWFlux},
		{"ice.conc", e.Ice.Conc}, {"ice.thick", e.Ice.Thick},
		{"ice.freezeheat", e.Ice.FreezeHeat},
	}
	for _, f3 := range ocnF3 {
		for k := 0; k < o.NL; k++ {
			for lj := 0; lj < b.NJ; lj++ {
				gStart := (k*g.NY+(b.J0+lj))*g.NX + b.I0
				addRow(f3.name, o.NL*n2g, gStart, rowOf(f3.data, k, lj))
			}
		}
	}
	for _, f2 := range ocnF2 {
		for lj := 0; lj < b.NJ; lj++ {
			gStart := (b.J0+lj)*g.NX + b.I0
			addRow(f2.name, n2g, gStart, rowOf(f2.data, 0, lj))
		}
	}
	if e.Comm.Rank() == 0 {
		for _, db := range b.DryBlocks() {
			zero := make([]float64, db.NI)
			for _, f3 := range ocnF3 {
				for k := 0; k < o.NL; k++ {
					for lj := 0; lj < db.NJ; lj++ {
						addRow(f3.name, o.NL*n2g, (k*g.NY+(db.J0+lj))*g.NX+db.I0, zero)
					}
				}
			}
			for _, f2 := range ocnF2 {
				for lj := 0; lj < db.NJ; lj++ {
					addRow(f2.name, n2g, (db.J0+lj)*g.NX+db.I0, zero)
				}
			}
		}
	}

	// --- Atmosphere + land ---
	m := e.Atm
	if e.dec == nil {
		// One rank: the local arrays are the global image.
		whole := func(name string, data []float64) {
			cp := append([]float64(nil), data...)
			fields = append(fields, pario.Field{Name: name, Global: len(cp), Start: 0, Data: cp})
		}
		whole("atm.ps", m.Ps)
		whole(atmTField, m.T)
		whole(atmQvField, m.Qv)
		whole(atmUField, m.U)
		whole("atm.sst", m.SST)
		whole("atm.icefrac", m.IceFrac)
		whole("atm.gsw", m.GSW)
		whole("atm.glw", m.GLW)
		whole("atm.precip", m.Precip)
		whole("atm.taux", m.TauX)
		whole("atm.tauy", m.TauY)
		whole("atm.shf", m.SHF)
		whole("atm.lhf", m.LHF)
		edge, dps := m.FluxAccumulators()
		if edge != nil {
			whole(atmFluxEdgeField, edge)
			whole("atm.fluxdps", dps)
		}
		whole("lnd.tsoil", e.Lnd.TSoil)
		whole("lnd.bucket", e.Lnd.Bucket)
	} else {
		// Decomposed: every rank writes what it owns. Owned cells, owned
		// edges, and owned land slots each partition their global index
		// space across ranks and are scattered id lists, written as their
		// grid.Runs chunks (the cells' are cached as OwnedRanges), so the
		// union of chunks is exactly one global image — bit-identical to
		// what one rank writes.
		d := e.dec
		nc := m.Mesh.NCells()
		ranges := d.OwnedRanges()
		chunk := func(name string, global, start int, data []float64) {
			cp := append([]float64(nil), data...)
			fields = append(fields, pario.Field{Name: name, Global: global, Start: start, Data: cp})
		}
		// Per-cell surface fields: one chunk per owned range.
		for _, fc := range []struct {
			name string
			data []float64
		}{
			{"atm.ps", m.Ps}, {"atm.sst", m.SST}, {"atm.icefrac", m.IceFrac},
			{"atm.gsw", m.GSW}, {"atm.glw", m.GLW}, {"atm.precip", m.Precip},
			{"atm.taux", m.TauX}, {"atm.tauy", m.TauY},
			{"atm.shf", m.SHF}, {"atm.lhf", m.LHF},
		} {
			for _, r := range ranges {
				chunk(fc.name, nc, r[0], fc.data[r[0]:r[0]+r[1]])
			}
		}
		// Column fields: one chunk of whole columns per owned run.
		columns := func(name string, data []float64, runs [][2]int) {
			for _, r := range runs {
				chunk(name, len(data), m.Idx(r[0], 0), m.Columns(data, r[0], r[1]))
			}
		}
		columns(atmTField, m.T, ranges)
		columns(atmQvField, m.Qv, ranges)
		// Edge fields: the runs of this rank's owned edges. Any decomposition
		// with edge state must expose its owned edge list for checkpointing.
		ed, ok := d.(grid.EdgeDecomp)
		if !ok {
			panic("core: decomposed atmosphere restart requires an edge-aware decomposition")
		}
		edgeRuns := grid.Runs(ed.OwnedEdgeList())
		columns(atmUField, m.U, edgeRuns)
		edge, dps := m.FluxAccumulators()
		if edge != nil {
			columns(atmFluxEdgeField, edge, edgeRuns)
			for _, r := range ranges {
				chunk("atm.fluxdps", nc, r[0], dps[r[0]:r[0]+r[1]])
			}
		}
		// Land: the runs of this rank's owned slots.
		for _, r := range grid.Runs(e.ownSlots) {
			chunk("lnd.tsoil", len(e.Lnd.TSoil), r[0], e.Lnd.TSoil[r[0]:r[0]+r[1]])
			chunk("lnd.bucket", len(e.Lnd.Bucket), r[0], e.Lnd.Bucket[r[0]:r[0]+r[1]])
		}
	}
	if e.Comm.Rank() == 0 {
		whole := func(name string, data []float64) {
			cp := append([]float64(nil), data...)
			fields = append(fields, pario.Field{Name: name, Global: len(cp), Start: 0, Data: cp})
		}
		whole("sfc.sstglobal", e.sstGlobal)
		whole("sfc.iceglobal", e.iceGlobal)
		whole(metaField, []float64{
			float64(e.couplingSteps),
			float64(m.Steps()),
			float64(o.Steps()),
		})
	}
	return fields
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

	// --- Atmosphere + land (every rank restores the whole arrays) ---
	m := e.Atm
	for _, spec := range []struct {
		name string
		dst  []float64
	}{
		{"atm.ps", m.Ps}, {atmTField, m.T}, {atmQvField, m.Qv}, {atmUField, m.U},
		{"atm.sst", m.SST}, {"atm.icefrac", m.IceFrac},
		{"atm.gsw", m.GSW}, {"atm.glw", m.GLW}, {"atm.precip", m.Precip},
		{"atm.taux", m.TauX}, {"atm.tauy", m.TauY},
		{"atm.shf", m.SHF}, {"atm.lhf", m.LHF},
		{"lnd.tsoil", e.Lnd.TSoil}, {"lnd.bucket", e.Lnd.Bucket},
	} {
		f, err := need(spec.name)
		if err != nil {
			return err
		}
		if len(f) != len(spec.dst) {
			return fmt.Errorf("core: restart field %q has %d values, want %d", spec.name, len(f), len(spec.dst))
		}
		copy(spec.dst, f)
	}
	// The surface caches are Bcast-shared across the rank goroutines (one
	// backing array for all ranks), so restoring them in place would race
	// when every rank reads the checkpoint; each rank installs a private
	// copy instead, and the next coupling Bcast re-shares them.
	for _, spec := range []struct {
		name string
		dst  *[]float64
	}{
		{"sfc.sstglobal", &e.sstGlobal}, {"sfc.iceglobal", &e.iceGlobal},
	} {
		f, err := need(spec.name)
		if err != nil {
			return err
		}
		if len(f) != len(*spec.dst) {
			return fmt.Errorf("core: restart field %q has %d values, want %d", spec.name, len(f), len(*spec.dst))
		}
		*spec.dst = append([]float64(nil), f...)
	}
	edge, eok := global[atmFluxEdgeField]
	dps, dok := global["atm.fluxdps"]
	if eok != dok {
		return fmt.Errorf("core: restart has partial flux accumulators")
	}
	if err := m.RestoreState(atmSteps, edge, dps); err != nil {
		return fmt.Errorf("core: restart fields %q/\"atm.fluxdps\": %w", atmFluxEdgeField, err)
	}

	// --- Ocean + ice (each rank keeps its block) ---
	o := e.Ocn
	b := o.B
	g := o.G
	n2g := g.NX * g.NY
	put3 := func(name string, dst []float64) error {
		f, err := need(name)
		if err != nil {
			return err
		}
		if len(f) != o.NL*n2g {
			return fmt.Errorf("core: restart field %q size %d", name, len(f))
		}
		for k := 0; k < o.NL; k++ {
			for lj := 0; lj < b.NJ; lj++ {
				for li := 0; li < b.NI; li++ {
					dst[k*o.LNI*o.LNJ+e.ocnIdx2(li, lj)] = f[(k*g.NY+(b.J0+lj))*g.NX+b.I0+li]
				}
			}
		}
		return nil
	}
	put2 := func(name string, dst []float64) error {
		f, err := need(name)
		if err != nil {
			return err
		}
		if len(f) != n2g {
			return fmt.Errorf("core: restart field %q size %d", name, len(f))
		}
		for lj := 0; lj < b.NJ; lj++ {
			for li := 0; li < b.NI; li++ {
				dst[e.ocnIdx2(li, lj)] = f[(b.J0+lj)*g.NX+b.I0+li]
			}
		}
		return nil
	}
	for _, s3 := range []struct {
		name string
		dst  []float64
	}{{"ocn.u", o.U}, {"ocn.v", o.V}, {"ocn.t", o.T}, {"ocn.s", o.S}} {
		if err := put3(s3.name, s3.dst); err != nil {
			return err
		}
	}
	for _, s2 := range []struct {
		name string
		dst  []float64
	}{
		{"ocn.eta", o.Eta}, {"ocn.ubar", o.Ubar}, {"ocn.vbar", o.Vbar},
		{"ocn.taux", o.TauX}, {"ocn.tauy", o.TauY},
		{"ocn.qheat", o.QHeat}, {"ocn.fw", o.FWFlux},
		{"ice.conc", e.Ice.Conc}, {"ice.thick", e.Ice.Thick},
		{"ice.freezeheat", e.Ice.FreezeHeat},
	} {
		if err := put2(s2.name, s2.dst); err != nil {
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

// RestartAt reports the simulated time of the restored checkpoint.
func (e *ESM) RestartAt() time.Time { return e.Clock.Current }
