// Package pp is the performance-portability layer of the reproduction — the
// stand-in for Kokkos (used by the ocean component) and OpenMP/SWGOMP (used
// by the atmosphere, land, and sea-ice components) described in §5.1 and
// §5.3 of the paper.
//
// A kernel is written once against ParallelFor/ParallelReduce and an
// execution-space handle, and runs unchanged on any backend:
//
//   - Serial: the MPE-only baseline (one management core per process);
//   - Host: a goroutine worker pool, the OpenMP-threads analogue;
//   - CPE: a simulated Sunway compute-processing-element cluster — a fixed
//     64-worker gang with block-cyclic scheduling and per-worker scratch,
//     mirroring the athread/LDM programming model.
//
// The package also provides the hash-based kernel registration and callback
// mechanism the paper introduces for template-metaprogramming-constrained
// Sunway toolchains (§5.3), multi-dimensional tiled ranges with per-tile
// profiling, and simple device views.
package pp

import (
	"fmt"
	"runtime"
	"sync"
)

// Space is an execution space: a place where parallel kernels run.
type Space interface {
	// Name identifies the backend ("Serial", "Host", "CPE").
	Name() string
	// Concurrency is the number of workers the space schedules onto.
	Concurrency() int
	// ParallelFor executes f(i) for every i in [0, n).
	ParallelFor(n int, f func(i int))
	// ParallelReduce executes f(i) for every i in [0, n) and combines the
	// results with join, starting from identity. join must be associative
	// and commutative.
	ParallelReduce(n int, identity float64, f func(i int) float64, join func(a, b float64) float64) float64
}

// Serial runs kernels on the calling goroutine. It models the MPE-only
// baseline configuration from Table 2.
type Serial struct{}

// Name implements Space.
func (Serial) Name() string { return "Serial" }

// Concurrency implements Space.
func (Serial) Concurrency() int { return 1 }

// ParallelFor implements Space.
func (Serial) ParallelFor(n int, f func(i int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}

// ParallelReduce implements Space.
func (Serial) ParallelReduce(n int, identity float64, f func(i int) float64, join func(a, b float64) float64) float64 {
	acc := identity
	for i := 0; i < n; i++ {
		acc = join(acc, f(i))
	}
	return acc
}

// Host is a shared worker-pool space, the analogue of an OpenMP parallel
// region on the host cores.
type Host struct {
	workers int
}

// NewHost creates a Host space with the given worker count; workers <= 0
// selects GOMAXPROCS.
func NewHost(workers int) *Host {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Host{workers: workers}
}

// Name implements Space.
func (h *Host) Name() string { return "Host" }

// Concurrency implements Space.
func (h *Host) Concurrency() int { return h.workers }

// ParallelFor implements Space with a static block schedule, the OpenMP
// default ("schedule(static)").
func (h *Host) ParallelFor(n int, f func(i int)) {
	parallelForBlocks(h.workers, n, f)
}

// ParallelReduce implements Space. Each worker reduces its block privately
// and block results are joined in worker order, so the result is
// deterministic for a fixed worker count.
func (h *Host) ParallelReduce(n int, identity float64, f func(i int) float64, join func(a, b float64) float64) float64 {
	return parallelReduceBlocks(h.workers, n, identity, f, join)
}

// CPE simulates one Sunway compute-processing-element cluster: a gang of 64
// workers with block-cyclic scheduling (the athread loop-mapping produced by
// SWGOMP) and a fixed-size per-worker scratch buffer standing in for the
// 256 KB local data memory (LDM).
type CPE struct {
	gang    int
	chunk   int
	scratch [][]float64
}

// CPEGangSize is the number of compute processing elements in one Sunway
// core group.
const CPEGangSize = 64

// LDMFloats is the per-CPE scratch capacity in float64 words (256 KB LDM).
const LDMFloats = 256 * 1024 / 8

// NewCPE creates a simulated CPE cluster. chunk is the block-cyclic chunk
// size; chunk <= 0 selects 64, a typical SWGOMP mapping.
func NewCPE(chunk int) *CPE {
	if chunk <= 0 {
		chunk = 64
	}
	s := make([][]float64, CPEGangSize)
	for i := range s {
		s[i] = make([]float64, LDMFloats)
	}
	return &CPE{gang: CPEGangSize, chunk: chunk, scratch: s}
}

// Name implements Space.
func (c *CPE) Name() string { return "CPE" }

// Concurrency implements Space.
func (c *CPE) Concurrency() int { return c.gang }

// Scratch exposes worker w's LDM-like scratch slice. Kernels that want the
// Sunway tiling style stage data here; the simulation only enforces the
// capacity, not the latency.
func (c *CPE) Scratch(w int) []float64 { return c.scratch[w] }

// procsFor caps the spawned goroutines at the number of occupied chunks
// ⌈n/chunk⌉: beyond that, block-cyclic workers have no chunk to run, so
// spawning them only burns scheduler time on small n.
func (c *CPE) procsFor(n int) int {
	procs := runtime.GOMAXPROCS(0)
	if procs > c.gang {
		procs = c.gang
	}
	if chunks := (n + c.chunk - 1) / c.chunk; procs > chunks {
		procs = chunks
	}
	return procs
}

// ParallelFor implements Space with block-cyclic scheduling: worker w runs
// chunks w, w+gang, w+2·gang, … of size chunk.
func (c *CPE) ParallelFor(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	// The simulated gang multiplexes onto the real machine's cores.
	procs := c.procsFor(n)
	worker := func(p int) {
		for w := p; w < c.gang; w += procs {
			for start := w * c.chunk; start < n; start += c.gang * c.chunk {
				end := start + c.chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					f(i)
				}
			}
		}
	}
	if procs == 1 {
		worker(0)
		return
	}
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			worker(p)
		}(p)
	}
	wg.Wait()
}

// ParallelReduce implements Space. Per-worker partials are joined in worker
// order for determinism.
func (c *CPE) ParallelReduce(n int, identity float64, f func(i int) float64, join func(a, b float64) float64) float64 {
	if n <= 0 {
		return identity
	}
	procs := c.procsFor(n)
	partials := make([]float64, c.gang)
	touched := make([]bool, c.gang)
	// Worker p sweeps gang slots p, p+procs, … — the per-slot partials are
	// identical for any procs because joining happens per slot, in slot
	// order, below.
	worker := func(p int) {
		for w := p; w < c.gang; w += procs {
			acc := identity
			did := false
			for start := w * c.chunk; start < n; start += c.gang * c.chunk {
				end := start + c.chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					acc = join(acc, f(i))
					did = true
				}
			}
			partials[w] = acc
			touched[w] = did
		}
	}
	if procs == 1 {
		worker(0)
	} else {
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				worker(p)
			}(p)
		}
		wg.Wait()
	}
	acc := identity
	first := true
	for w, pv := range partials {
		if !touched[w] {
			continue
		}
		if first {
			acc = pv // identity already folded into this partial
			first = false
		} else {
			acc = join(acc, pv)
		}
	}
	return acc
}

// parallelForBlocks statically partitions [0,n) into one contiguous block
// per worker.
func parallelForBlocks(workers, n int, f func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

func parallelReduceBlocks(workers, n int, identity float64, f func(i int) float64, join func(a, b float64) float64) float64 {
	if n == 0 {
		return identity
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		acc := identity
		for i := 0; i < n; i++ {
			acc = join(acc, f(i))
		}
		return acc
	}
	partials := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acc := identity
			for i := lo; i < hi; i++ {
				acc = join(acc, f(i))
			}
			partials[w] = acc
		}(w, lo, hi)
	}
	wg.Wait()
	acc := identity
	for _, p := range partials {
		acc = join(acc, p)
	}
	return acc
}

// DefaultSpace returns the backend selected by name, mirroring how the
// coupled model picks an implementation per architecture (§5.1.1).
func DefaultSpace(name string) (Space, error) {
	switch name {
	case "Serial", "serial", "MPE", "mpe":
		return Serial{}, nil
	case "Host", "host", "OpenMP", "openmp":
		return NewHost(0), nil
	case "CPE", "cpe", "Athread", "athread":
		return NewCPE(0), nil
	default:
		return nil, fmt.Errorf("pp: unknown execution space %q (want Serial, Host or CPE; aliases MPE, OpenMP, Athread)", name)
	}
}
