package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/atmos"
	"repro/internal/core"
	"repro/internal/coupler"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/land"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pario"
	"repro/internal/pp"
	"repro/internal/precision"
	"repro/internal/statestore"
)

// The layer micro-harness times calls into each layer's public functions
// from outside: the per-layer numbers of the traced run that no lap gives.
// µs-scale calls are the median of fastN samples, ms-scale of slowN, the
// build/restore calls of buildN (each sample builds a mesh, a router or a
// model). -smoke takes a tenth of the samples.
const (
	fastN  = 200
	slowN  = 30
	buildN = 7
	batch  = 1000 // calls per sample for ns-scale calls

	microSnapshots = 128 // the store the statestore calls run on: serve_mix's initial size
)

type metrics map[string]float64

// micro is one run of the micro-harness.
type micro struct {
	m     metrics
	dir   string
	smoke bool
}

func (q *micro) samples(n int) int {
	if q.smoke {
		return max(n/10, 2)
	}
	return n
}

// layerMicro fills m with every layer metric that is independent of the
// workload. in is the captured serve archive.
func layerMicro(m metrics, in *serveInput, dir string, smoke bool) error {
	q := &micro{m: m, dir: dir, smoke: smoke}
	for _, f := range []func() error{q.core, q.twoRanks, q.leaf} {
		if err := f(); err != nil {
			return err
		}
	}
	return q.store(in)
}

func newModel(c *par.Comm, ob obs.Observer) (*core.ESM, error) {
	cfg, err := core.ConfigForLabel(modelConfig)
	if err != nil {
		return nil, err
	}
	return core.NewWithOptions(cfg, c,
		core.WithInterval(modelStart, modelStart.Add(240*time.Hour)),
		core.WithSpace(pp.Serial{}), core.WithRemap(core.RemapCons),
		core.WithAudit(true), core.WithObserver(ob))
}

// core measures core and, on the components of the same model after
// warmSteps steps, atmos, ocean, seaice and land.
func (q *micro) core() (err error) {
	m, nFast, nSlow, nBuild := q.m, q.samples(fastN), q.samples(slowN), q.samples(buildN)
	ck := filepath.Join(q.dir, "microck")
	par.Run(1, func(c *par.Comm) {
		var e *core.ESM
		if e, err = newModel(c, obs.Nop{}); err != nil {
			return
		}
		for i := 0; i < warmSteps; i++ {
			e.Step()
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < warmSteps; i++ {
			e.Step()
		}
		runtime.ReadMemStats(&ms1)
		m["core.alloc_bytes_per_step"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / warmSteps

		m["core.capture_ms"] = ms(timeCalls(nSlow, func() { e.CaptureServeSnapshot() }))
		m["core.write_restart_ms"] = ms(timeCalls(nSlow, func() {
			if werr := e.WriteRestart(ck, 1); werr != nil {
				err = werr
			}
		}))
		if err != nil {
			return
		}
		for _, p := range pario.SubfilePaths(ck, 1) {
			st, serr := os.Stat(p)
			if serr != nil {
				err = serr
				return
			}
			m["core.restart_bytes"] += float64(st.Size())
		}

		// A rollback is a fresh model plus ReadRestart; the redone steps
		// are ordinary steps.
		var build, read, both []float64
		for i := 0; i < nBuild; i++ {
			t0 := time.Now()
			fresh, ferr := newModel(c, obs.Nop{})
			t1 := time.Now()
			if ferr == nil {
				ferr = fresh.ReadRestart(ck, 1)
			}
			t2 := time.Now()
			if ferr != nil {
				err = ferr
				return
			}
			build = append(build, ms(t1.Sub(t0)))
			read = append(read, ms(t2.Sub(t1)))
			both = append(both, ms(t2.Sub(t0)))
		}
		m["core.assemble_ms"] = median(build)
		m["core.read_restart_ms"] = median(read)
		m["core.rollback_ms"] = median(both)

		// Components, called directly on the stepped model's state.
		a := e.Atm
		suite, ok := a.Physics.(*atmos.ConventionalSuite)
		if !ok {
			err = fmt.Errorf("atmosphere physics is %T, want *atmos.ConventionalSuite", a.Physics)
			return
		}
		step := ms(timeCalls(nSlow, a.StepModel))
		suite.DisableRadiation = true
		norad := ms(timeCalls(nSlow, a.StepModel))
		suite.DisableRadiation = false
		m["atmos.step_ms"], m["atmos.step_norad_ms"] = step, norad
		m["atmos.rad_share"] = 1 - norad/step

		nlev := a.NLev
		in := atmos.ColumnIn{
			U: make([]float64, nlev), V: make([]float64, nlev), T: make([]float64, nlev),
			Q: make([]float64, nlev), P: make([]float64, nlev),
			Lat: 0.3, TSkin: 300, CosZ: 0.7,
		}
		for k := 0; k < nlev; k++ {
			in.T[k], in.P[k], in.Q[k] = a.T[k*a.Mesh.NCells()], a.Sig[k]*a.Ps[0], a.Qv[k*a.Mesh.NCells()]
		}
		out := atmos.ColumnOut{
			DT: make([]float64, nlev), DQ: make([]float64, nlev),
			DU: make([]float64, nlev), DV: make([]float64, nlev),
		}
		m["atmos.rad_us_per_col"] = us(timeCalls(nFast, func() { suite.TwoStreamRadiation(in) }))
		m["atmos.column_us"] = us(timeCalls(nFast, func() { suite.Column(in, a.DtModel(), &out) }))

		m["ocean.step_ms"] = ms(timeCalls(nSlow, e.Ocn.Step))
		m["seaice.step_ms"] = ms(timeCalls(nFast, e.Ice.Step))
		f := land.Forcing{GSW: 200, GLW: 350, TAir: 288, QAir: 0.008, Wind: 5, Precip: 1e-5, PSfc: atmos.P0}
		cell := e.Lnd.Cells[0]
		m["land.stepcell_ns"] = timeBatched(nFast, batch, func() {
			if _, lerr := e.Lnd.StepCell(cell, f, 480); lerr != nil {
				err = lerr
			}
		})
	})
	return err
}

// twoRanks measures grid, par and coupler on two ranks; rank 0 holds
// the clock and both ranks make the same calls.
func (q *micro) twoRanks() (err error) {
	m, nFast, nBuild := q.m, q.samples(fastN), q.samples(buildN)
	cfg, err := core.ConfigForLabel(modelConfig)
	if err != nil {
		return err
	}
	var mesh *grid.IcosMesh
	m["grid.mesh_build_ms"] = ms(timeCalls(nBuild, func() { mesh, err = grid.NewIcosMesh(cfg.AtmLevel) }))
	if err != nil {
		return err
	}
	g, err := grid.NewTripolar(cfg.OcnNX, cfg.OcnNY, cfg.OcnNLev)
	if err != nil {
		return err
	}
	rg := core.NewRegridder(mesh, g)
	nCol := g.NX * g.NY

	par.Run(2, func(c *par.Comm) {
		put := func(name string, v float64) {
			if c.Rank() == 0 {
				m[name] = v
			}
		}
		fail := func(e error) {
			if c.Rank() == 0 {
				err = e
			}
		}
		var d *grid.IcosDecomp
		var blk *grid.TripolarDecomp
		var derr error
		put("grid.decomp_build_ms", ms(timeCalls(nBuild, func() {
			if d, derr = grid.NewIcosDecomp(mesh, c); derr == nil {
				blk, derr = grid.NewTripolarDecomp(g, c, 1)
			}
		})))
		if derr != nil {
			fail(derr)
			return
		}
		cells := make([]float64, cfg.AtmNLev*mesh.NCells())
		put("grid.icos_halo_us", us(timeCalls(nFast, func() { d.ExchangeCells(cells, cfg.AtmNLev) })))
		halo := []grid.HaloField{{Data: make([]float64, cfg.OcnNLev*blk.LNI()*blk.LNJ()), NLev: cfg.OcnNLev}}
		put("grid.tri_halo_us", us(timeCalls(nFast, func() { blk.ExchangeFields(halo) })))

		peer := 1 - c.Rank()
		pingpong := func(n int) float64 {
			buf := make([]float64, n)
			return us(timeCalls(nFast, func() {
				if c.Rank() == 0 {
					par.SendF64(c, peer, 1, buf)
					par.RecvF64(c, peer, 1)
				} else {
					par.RecvF64(c, peer, 1)
					par.SendF64(c, peer, 1, buf)
				}
			}))
		}
		put("par.pingpong_1k_us", pingpong(1024/8))
		put("par.pingpong_64k_us", pingpong(65536/8))
		put("par.barrier_us", us(timeCalls(nFast, c.Barrier)))
		v16 := make([]float64, 16)
		put("par.allreduce16_us", us(timeCalls(nFast, func() { c.AllreduceSlice(v16, par.OpSum) })))

		// The atm→ocn nearest-neighbour router core builds at assembly.
		var rt *coupler.Router
		put("coupler.router_build_ms", ms(timeCalls(nBuild, func() {
			src, e1 := coupler.OfflineGSMap(func(gi int) int {
				if blk.Owner(gi) < 0 {
					return -1
				}
				return d.Owner(rg.OcnToAtm[gi])
			}, nCol, 2)
			dst, e2 := coupler.OfflineGSMap(blk.Owner, nCol, 2)
			if e1 != nil || e2 != nil {
				derr = fmt.Errorf("router maps: %v, %v", e1, e2)
				return
			}
			rt, derr = coupler.BuildRouter(c, src, dst)
		})))
		if derr != nil {
			fail(derr)
			return
		}
		fields := []string{"u10", "v10", "tair", "qair", "gsw", "glw", "precip"}
		src, e1 := coupler.NewAttrVect(fields, rt.NSrc)
		dst, e2 := coupler.NewAttrVect(fields, rt.NDst)
		if e1 != nil || e2 != nil {
			fail(fmt.Errorf("router vectors: %v, %v", e1, e2))
			return
		}
		put("coupler.rearrange_us", us(timeCalls(nFast, func() {
			if rerr := coupler.RearrangeInto(c, rt, src, dst, coupler.ModeP2P, nil); rerr != nil {
				derr = rerr
			}
		})))
		if derr != nil {
			fail(derr)
			return
		}
		_, p2p := rt.MessageCount(c.Rank(), 2)
		put("coupler.rearrange_msgs_per_call", float64(c.AllreduceInt(p2p)))
	})
	return err
}

// leaf measures the leaf layers: pp, precision, pario, fault, obs.
func (q *micro) leaf() (err error) {
	m, nFast, nSlow := q.m, q.samples(fastN), q.samples(slowN)
	reg := pp.NewRegistry()
	h := reg.MustRegister("bench.empty", func(pp.Space, any) {})
	m["pp.launch_ns"] = timeBatched(nFast, batch, func() { reg.MustLaunch(h, pp.Serial{}, nil) })

	x := make([]float64, 4096)
	for i := range x {
		x[i] = 1e5 + float64(i%97)*13.7
	}
	gs, err := precision.EncodeGroupScaled(x, statestore.DefaultGroup)
	if err != nil {
		return err
	}
	m["precision.encode_ns_per_val"] = float64(timeCalls(nFast, func() {
		err = precision.EncodeGroupScaledInto(gs, x, statestore.DefaultGroup)
	})) / float64(len(x))
	m["precision.decode_ns_per_val"] = float64(timeCalls(nFast, func() {
		err = gs.DecodeInto(x)
	})) / float64(len(x))
	if err != nil {
		return err
	}

	// One rank writes and reads back 1 MiB, the size of a 25v10 restart set.
	pdir := filepath.Join(q.dir, "micropario")
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		return err
	}
	data := make([]float64, 1<<17)
	mb := float64(8*len(data)) / 1e6
	par.Run(1, func(c *par.Comm) {
		fields := []pario.Field{{Name: "x", Global: len(data), Start: 0, Data: data}}
		w := timeCalls(nSlow, func() {
			if werr := pario.WriteSubfiles(c, pdir, 1, fields); werr != nil {
				err = werr
			}
		})
		m["pario.write_mb_s"] = mb / w.Seconds()
	})
	if err != nil {
		return err
	}
	r := timeCalls(nSlow, func() {
		if _, rerr := pario.ReadGlobal(pario.SubfilePaths(pdir, 1)); rerr != nil {
			err = rerr
		}
	})
	m["pario.read_mb_s"] = mb / r.Seconds()

	m["fault.point_disarmed_ns"] = timeBatched(nFast, batch, func() { fault.Point("esm.step", 0) })
	o := obs.New(0, nil)
	m["obs.span_ns"] = timeBatched(nFast, batch, func() { o.StartSpan("bench").End() })
	return err
}

// store measures statestore on a store holding the archive: each query class directly and, for points, through the handler.
func (q *micro) store(in *serveInput) error {
	m, nFast, nSlow := q.m, q.samples(fastN), q.samples(slowN)
	dir := filepath.Join(q.dir, "microstore")
	defer os.RemoveAll(dir)
	n := min(len(in.snaps), microSnapshots)
	w, err := statestore.Create(dir, 0, nil)
	if err != nil {
		return err
	}
	defer w.Close()
	var appendUs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := w.Append(in.snaps[i]); err != nil {
			return err
		}
		appendUs = append(appendUs, us(time.Since(t0)))
	}
	m["statestore.append_us"] = median(appendUs)
	fi, err := os.Stat(filepath.Join(dir, statestore.DataFile))
	if err != nil {
		return err
	}
	m["statestore.bytes_per_snapshot"] = float64(fi.Size()) / float64(n)

	st, err := statestore.Open(dir, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	srv, err := statestore.NewServer(st, "127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	cl := newClient(srv.Handler())

	// Decode misses first, while the cache is cold: each (snapshot, field)
	// pair is decoded once, which also fills the cache.
	var miss []float64
	for s := 0; s < n; s++ {
		for _, f := range []string{statestore.PsField, statestore.SSTField} {
			t0 := time.Now()
			if _, err = st.DecodeField(s, f); err != nil {
				return err
			}
			miss = append(miss, us(time.Since(t0)))
		}
	}
	m["statestore.decode_miss_us"] = median(miss)
	m["statestore.decode_hit_ns"] = timeBatched(nFast, batch, func() { _, err = st.DecodeField(7, statestore.PsField) })

	i := 0
	next := func(mod int) int { i++; return (i * 37) % mod }
	cells := len(in.ref[0][0])
	direct := us(timeCalls(nFast, func() { _, err = st.Point(next(n), statestore.PsField, next(cells)) }))
	point := query{path: "/v1/point", raw: "field=atm.ps&cell=17&snap=5"}
	viaHTTP := us(timeCalls(nFast, func() { cl.get(&point) }))
	m["statestore.point_us"], m["statestore.point_http_us"] = direct, viaHTTP
	m["statestore.http_shim_frac"] = 1 - direct/viaHTTP
	m["statestore.pointseries_us"] = us(timeCalls(nFast, func() { _, err = st.PointSeries(statestore.PsField, next(cells)) }))
	m["statestore.region_us"] = us(timeCalls(nFast, func() {
		lo := next(cells - regionW)
		_, err = st.RegionSeries(statestore.PsField, lo, lo+regionW)
	}))
	m["statestore.analog_ms"] = ms(timeCalls(nSlow, func() {
		_, err = st.NearestAnalogs(statestore.PsField, in.ref[next(n)][0], analogK, 2)
	}))
	m["statestore.diag_us"] = us(timeCalls(nFast, func() { _, err = st.Diagnostics(next(n)) }))
	meta := query{path: "/v1/meta"}
	m["statestore.meta_us"] = us(timeCalls(nFast, func() { cl.get(&meta) }))
	return err
}
