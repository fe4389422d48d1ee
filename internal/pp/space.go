// Package pp is the performance-portability layer of the reproduction — the
// stand-in for Kokkos (used by the ocean component) and OpenMP/SWGOMP (used
// by the atmosphere, land, and sea-ice components) described in §5.1 and
// §5.3 of the paper.
//
// A kernel is written once against ParallelFor and an execution-space
// handle, and runs unchanged on any backend:
//
//   - Serial: the MPE-only baseline (one management core per process);
//   - Host: a goroutine worker pool, the OpenMP-threads analogue;
//   - CPE: a simulated Sunway compute-processing-element cluster — a fixed
//     64-worker gang with block-cyclic scheduling, mirroring the athread
//     loop mapping.
//
// ap3esm and doksuri run the model on Serial; Host and CPE are measured
// against it by the portability benchmark (E6). The package also provides the hash-based
// kernel registration and callback mechanism the paper introduces for
// template-metaprogramming-constrained Sunway toolchains (§5.3) and a
// minimal device view.
package pp

import (
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

// CPE simulates one Sunway compute-processing-element cluster: a gang of 64
// workers with block-cyclic scheduling (the athread loop-mapping produced by
// SWGOMP).
type CPE struct {
	gang  int
	chunk int
}

// CPEGangSize is the number of compute processing elements in one Sunway
// core group.
const CPEGangSize = 64

// NewCPE creates a simulated CPE cluster. chunk is the block-cyclic chunk
// size; chunk <= 0 selects 64, a typical SWGOMP mapping.
func NewCPE(chunk int) *CPE {
	if chunk <= 0 {
		chunk = 64
	}
	return &CPE{gang: CPEGangSize, chunk: chunk}
}

// Name implements Space.
func (c *CPE) Name() string { return "CPE" }

// Concurrency implements Space.
func (c *CPE) Concurrency() int { return c.gang }

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
