package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/coupler"
	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/pario"
	"repro/internal/pp"
)

// globalCoupledState assembles the rank-count-independent coupled state into
// one flat global image: atmosphere Ps/T/Qv/U/SST plus the land stores.
// On 1 rank the local arrays already are that image; decomposed, each rank
// contributes exactly its owned cells, edges, and land slots (read from its
// patch through the local ids) to a zeroed buffer and a sum-allreduce places
// every value once (the owned sets partition their index spaces), so the
// result is bit-exact, not averaged.
func globalCoupledState(e *ESM) []float64 {
	m := e.Atm
	nc64, ne64, _ := grid.IcosCounts(m.Mesh.Level)
	nc, ne, nl := int(nc64), int(ne64), m.NLev
	nT := len(e.Lnd.TSoil)
	oPs := 0
	oT := oPs + nc
	oQv := oT + nl*nc
	oU := oQv + nl*nc
	oSST := oU + nl*ne
	oTS := oSST + nc
	oBk := oTS + nT
	buf := make([]float64, oBk+nT)
	ad := m.Decomp()
	if ad == nil {
		copy(buf[oPs:], m.Ps)
		copy(buf[oT:], m.T)
		copy(buf[oQv:], m.Qv)
		copy(buf[oU:], m.U)
		copy(buf[oSST:], m.SST)
		copy(buf[oTS:], e.Lnd.TSoil)
		copy(buf[oBk:], e.Lnd.Bucket)
		return buf
	}
	for _, r := range ad.OwnedRanges() {
		for c := r[0]; c < r[0]+r[1]; c++ {
			lc := ad.LocalCell(c)
			buf[oPs+c] = m.Ps[lc]
			buf[oSST+c] = m.SST[lc]
			for k := 0; k < nl; k++ {
				i := m.Idx(c, k)
				buf[oT+i] = m.T[m.Idx(lc, k)]
				buf[oQv+i] = m.Qv[m.Idx(lc, k)]
			}
		}
	}
	for _, eg := range ad.OwnEdges {
		for k := 0; k < nl; k++ {
			i := m.Idx(eg, k)
			buf[oU+i] = m.U[m.Idx(ad.LocalEdge(eg), k)]
		}
	}
	for _, slot := range e.ownSlots {
		buf[oTS+slot] = e.Lnd.TSoil[slot]
		buf[oBk+slot] = e.Lnd.Bucket[slot]
	}
	return e.Comm.AllreduceSlice(buf, par.OpSum)
}

// runDecomp advances a fresh audited conservative-remap model and returns
// the assembled global state, rank 0's gathered sea-surface height, and the
// worst audited residuals.
func runDecomp(t *testing.T, ranks int, sched Schedule, steps int) (state, eta []float64, maxHeat, maxFW float64) {
	t.Helper()
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	par.Run(ranks, func(c *par.Comm) {
		e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}),
			WithSchedule(sched), WithRemap(RemapCons), WithAudit(true))
		if err != nil {
			t.Error(err)
			return
		}
		if (e.Atm.Decomp() != nil) != (ranks > 1) {
			t.Errorf("%d ranks: decomposition active = %v", ranks, e.Atm.Decomp() != nil)
			return
		}
		for i := 0; i < steps; i++ {
			if !e.Step() {
				t.Errorf("clock exhausted at step %d", i)
				return
			}
		}
		st := globalCoupledState(e)
		out := e.Ocn.GatherSurface(e.Ocn.Eta)
		if c.Rank() == 0 {
			state, eta = st, out
			s := e.Budget().Summary()
			maxHeat, maxFW = s.MaxHeatResid, s.MaxFWResid
		}
	})
	return state, eta, maxHeat, maxFW
}

// The tentpole acceptance test: the decomposed atmosphere + land, the 2D
// block-decomposed ocean + ice, and the distributed conservative coupling
// path reproduce the 1-rank run bit-for-bit at 2, 3, 4, 8, and 16 ranks,
// under both schedules, while the conservation audit stays gate-clean at
// every rank count.
func TestDecompRankCountInvariance(t *testing.T) {
	const steps = 25 // five audited ocean couplings
	refState, refEta, refHeat, refFW := runDecomp(t, 1, ScheduleSeq, steps)
	if refHeat > 1e-10 || refFW > 1e-10 {
		t.Fatalf("1-rank residuals %.3e/%.3e exceed the 1e-10 gate", refHeat, refFW)
	}
	counts := []int{2, 3, 4, 8, 16}
	if testing.Short() {
		counts = []int{2, 8}
	}
	for _, ranks := range counts {
		for _, sched := range []Schedule{ScheduleSeq, ScheduleConc} {
			t.Run(fmt.Sprintf("ranks=%d/%v", ranks, sched), func(t *testing.T) {
				state, eta, maxHeat, maxFW := runDecomp(t, ranks, sched, steps)
				if maxHeat > 1e-10 || maxFW > 1e-10 {
					t.Errorf("residuals %.3e/%.3e exceed the 1e-10 gate", maxHeat, maxFW)
				}
				if len(state) != len(refState) {
					t.Fatalf("state sizes differ: %d vs %d", len(state), len(refState))
				}
				for i := range state {
					if state[i] != refState[i] {
						t.Fatalf("state[%d] = %v, 1-rank reference %v", i, state[i], refState[i])
					}
				}
				for i := range eta {
					if eta[i] != refEta[i] {
						t.Fatalf("eta[%d] = %v, 1-rank reference %v", i, eta[i], refEta[i])
					}
				}
			})
		}
	}
}

// A decomposed run checkpoints through per-rank owned chunks — scattered
// cell, edge and land-slot runs under the compact partition — at a dividing
// (2) and a non-dividing (3) rank count. The written global image must be
// bit-identical to the 1-rank image, and the restored run — on the same rank
// count or on 1 rank — must continue bit-for-bit. (The converse direction,
// a 1-rank checkpoint restored onto a decomposed run, is pinned by
// TestRestartAcrossRankCounts.)
func TestDecompRestartRoundTrip(t *testing.T) {
	start := time.Date(2023, 7, 21, 0, 0, 0, 0, time.UTC)
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	const stepsA, stepsB = 10, 8

	// run advances a fresh model on ranks ranks — restored from dir when
	// resume is set, else stepped stepsA and checkpointed into dir — then
	// stepsB further, and returns the final global state.
	run := func(name string, ranks, nGroups int, dir string, resume bool) []float64 {
		t.Helper()
		var state []float64
		par.Run(ranks, func(c *par.Comm) {
			e, err := NewWithOptions(cfg, c, WithInterval(start, start.Add(24*time.Hour)))
			if err != nil {
				t.Error(err)
				return
			}
			if resume {
				err = e.ReadRestart(dir, nGroups)
			} else {
				for i := 0; i < stepsA; i++ {
					e.Step()
				}
				err = e.WriteRestart(dir, nGroups)
			}
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < stepsB; i++ {
				e.Step()
			}
			st := globalCoupledState(e)
			if c.Rank() == 0 {
				state = st
			}
		})
		if state == nil {
			t.Fatalf("%s: no state", name)
		}
		return state
	}
	image := func(dir string, nGroups int) map[string][]float64 {
		t.Helper()
		img, err := pario.ReadGlobal(pario.SubfilePaths(dir, nGroups))
		if err != nil {
			t.Fatal(err)
		}
		return img
	}

	dir1 := t.TempDir()
	ref := run("1-rank reference", 1, 1, dir1, false)
	img1 := image(dir1, 1)

	for _, ranks := range []int{2, 3} {
		dir := t.TempDir()
		same := func(name string, got []float64) {
			t.Helper()
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%d ranks, %s: state[%d] = %v, want %v", ranks, name, i, got[i], ref[i])
				}
			}
		}
		same("checkpointing run", run("checkpointing run", ranks, 2, dir, false))

		img := image(dir, 2)
		if len(img) != len(img1) {
			t.Fatalf("%d ranks: image has %d fields, 1-rank image %d", ranks, len(img), len(img1))
		}
		for name, want := range img1 {
			got := img[name]
			if len(got) != len(want) {
				t.Fatalf("%d ranks: field %q has %d values, 1-rank image %d", ranks, name, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d ranks: image %s[%d] = %v, 1-rank image %v", ranks, name, i, got[i], want[i])
				}
			}
		}

		same("same-rank-count resume", run("same-rank-count resume", ranks, 2, dir, true))
		same("1-rank resume of decomposed checkpoint", run("1-rank resume", 1, 2, dir, true))
	}
}

// The distributed coupling hot path — pack, rearrange, consume — must be
// allocation-free in steady state, in both remap modes: the flux import
// alone, and the import alternating with the ice forcing, whose 3-field
// vectors share the router (and its pack buffers) with the import's 4 or 7
// fields. Rank 0 measures while the peer drives the matching collectives
// the same number of times.
func TestDistributedImportZeroAllocs(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	for _, remap := range []RemapMode{RemapNN, RemapCons} {
		t.Run(remap.String(), func(t *testing.T) {
			const runs = 20
			par.Run(2, func(c *par.Comm) {
				e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithRemap(remap))
				if err != nil {
					t.Error(err)
					return
				}
				both := func() {
					e.iceForcing()
					e.oceanImport()
				}
				for _, lap := range []struct {
					name string
					fn   func()
				}{{"import", e.oceanImport}, {"ice+import", both}} {
					// Steady state: grow every router pack buffer first.
					for i := 0; i < 3; i++ {
						lap.fn()
					}
					c.Barrier()
					if c.Rank() == 0 {
						if allocs := testing.AllocsPerRun(runs, lap.fn); allocs != 0 {
							t.Errorf("%v %s: %v allocs/op in steady state, want 0", remap, lap.name, allocs)
						}
					} else {
						for i := 0; i < runs+1; i++ {
							lap.fn()
						}
					}
					c.Barrier()
				}
			})
		})
	}
}

// The one-rank flux import and ice forcing read the atmosphere's own arrays
// instead of a router; they too must be allocation-free in steady state in
// both remap modes — the import alone, and the import alternating with the
// ice forcing, which share the surface-air buffer — so the 10 m wind goes
// into the model's persistent buffers. With the audit on as well: its
// sixteen partial sums reduce between two persistent buffers, a copy on one
// rank. (The ledger's history grows by append, geometrically: a few
// reallocations over 20 records, which AllocsPerRun's whole-number mean
// reads as 0.)
func TestOneRankImportZeroAllocs(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	for _, remap := range []RemapMode{RemapNN, RemapCons} {
		t.Run(remap.String(), func(t *testing.T) {
			for _, audit := range []bool{false, true} {
				par.Run(1, func(c *par.Comm) {
					e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithRemap(remap), WithAudit(audit))
					if err != nil {
						t.Error(err)
						return
					}
					both := func() {
						e.iceForcing()
						e.oceanImport()
					}
					for _, lap := range []struct {
						name string
						fn   func()
					}{{"import", e.oceanImport}, {"ice+import", both}} {
						lap.fn()
						if allocs := testing.AllocsPerRun(20, lap.fn); allocs != 0 {
							t.Errorf("%v %s (audit %v): %v allocs/op in steady state, want 0", remap, lap.name, audit, allocs)
						}
					}
				})
			}
		})
	}
}

// The coupling plan is sized by the atmosphere cells each ocean rank reads,
// not by a global index space. Decomposed, every rank's router delivers
// exactly one point per distinct cell its owned block reads (each owned
// column's nearest cell; under RemapCons also its row's overlap cells), the
// ranks pack as many points as they deliver, and no vector is built for a
// field set the remap mode never rearranges. On one rank there is neither a
// router nor a vector: the ghost ids are the regridder's own maps.
func TestCouplingPlanIsPerCell(t *testing.T) {
	cfg, err := ConfigForLabel("25v10")
	if err != nil {
		t.Fatal(err)
	}
	for _, remap := range []RemapMode{RemapNN, RemapCons} {
		t.Run(fmt.Sprintf("%v/ranks=1", remap), func(t *testing.T) {
			par.Run(1, func(c *par.Comm) {
				e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithRemap(remap))
				if err != nil {
					t.Error(err)
					return
				}
				ds, rg := e.dst, e.Rg
				if ds.rt != nil {
					t.Error("one rank builds a coupling router")
				}
				for _, v := range []*coupler.AttrVect{ds.iceSrc, ds.iceDst, ds.consSrc, ds.consDst, ds.nnSrc, ds.nnDst} {
					if v != nil {
						t.Error("one rank builds a coupling vector")
					}
				}
				if len(ds.colRef) != len(rg.OcnToAtm) {
					t.Fatalf("colRef has %d ids, OcnToAtm %d", len(ds.colRef), len(rg.OcnToAtm))
				}
				for gi, ac := range rg.OcnToAtm {
					if int(ds.colRef[gi]) != ac {
						t.Fatalf("colRef[%d] = %d, OcnToAtm %d", gi, ds.colRef[gi], ac)
					}
				}
				if remap == RemapCons && (len(ds.consRef) != len(rg.ConsCol) || &ds.consRef[0] != &rg.ConsCol[0]) {
					t.Error("consRef is not the regridder's ConsCol")
				}
			})
		})
		for _, ranks := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%v/ranks=%d", remap, ranks), func(t *testing.T) {
				ndst := make([]int, ranks)
				par.Run(ranks, func(c *par.Comm) {
					e, err := NewWithOptions(cfg, c, WithSpace(pp.Serial{}), WithRemap(remap))
					if err != nil {
						t.Error(err)
						return
					}
					ds, b, rg := e.dst, e.Ocn.B, e.Rg
					read := map[int32]bool{}
					for lj := 0; lj < b.NJ; lj++ {
						for li := 0; li < b.NI; li++ {
							gi := b.GIdx(li, lj)
							read[int32(rg.OcnToAtm[gi])] = true
							if remap == RemapCons {
								for _, ac := range rg.ConsCol[rg.ConsPtr[gi]:rg.ConsPtr[gi+1]] {
									read[ac] = true
								}
							}
						}
					}
					if ds.rt.NDst != len(read) {
						t.Errorf("rank %d: router delivers %d points, its block reads %d cells", c.Rank(), ds.rt.NDst, len(read))
					}
					ndst[c.Rank()] = ds.rt.NDst
					if nsrc, nd := c.AllreduceInt(ds.rt.NSrc), c.AllreduceInt(ds.rt.NDst); nsrc != nd {
						t.Errorf("rank %d: ranks pack %d points, deliver %d", c.Rank(), nsrc, nd)
					}
					for _, v := range []struct {
						name     string
						src, dst *coupler.AttrVect
						want     bool
					}{
						{"ice", ds.iceSrc, ds.iceDst, true},
						{"cons", ds.consSrc, ds.consDst, remap == RemapCons},
						{"nn", ds.nnSrc, ds.nnDst, remap == RemapNN},
					} {
						if (v.src != nil) != v.want || (v.dst != nil) != v.want {
							t.Errorf("rank %d: %s vectors built = %v/%v, want %v", c.Rank(), v.name, v.src != nil, v.dst != nil, v.want)
						}
					}
				})
				if remap == RemapCons && ranks == 2 && (ndst[0] != 342 || ndst[1] != 317) {
					t.Errorf("25v10 on 2 ranks delivers %v points, want [342 317]", ndst)
				}
			})
		}
	}
}
