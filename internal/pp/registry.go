package pp

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// Kernel is a registered parallel kernel: it receives the execution space
// and an opaque argument bundle. On the real Sunway system, Kokkos kernels
// are C++ templates that the TMP-constrained device toolchain cannot
// instantiate; the paper's workaround (§5.3) registers each concrete kernel
// under a hash at host-compile time and dispatches on the device through a
// callback table. Registry reproduces that mechanism. Kernel bodies read
// typed arguments out of the bundle and schedule on s, so one registration
// covers every backend.
type Kernel func(s Space, args any)

// kernelEntry is one registered kernel. The observer metric name is
// precomputed at registration, so Launch does no allocation and takes no
// write lock on the hot path.
type kernelEntry struct {
	name   string
	metric string
	k      Kernel
}

// Registry maps kernel-name hashes to callbacks.
type Registry struct {
	mu     sync.RWMutex
	byHash map[uint64]*kernelEntry
	obs    Observer
}

// SetObserver forwards per-kernel launch counts to o under
// "pp.kernel.<name>". A nil observer disables forwarding.
func (r *Registry) SetObserver(o Observer) {
	r.mu.Lock()
	r.obs = o
	r.mu.Unlock()
}

// NewRegistry returns an empty kernel registry.
func NewRegistry() *Registry {
	return &Registry{byHash: make(map[uint64]*kernelEntry)}
}

// Kernels is the package-level default registry. Components register their
// hot kernels here at init time and drivers launch through it — one callback
// table per process, like the paper's host-compiled dispatch table.
var Kernels = NewRegistry()

// HashName computes the 64-bit FNV-1a hash used as the kernel's registration
// key, mirroring the paper's hash-based function registration.
func HashName(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// Register adds a kernel under its name hash and returns the hash. A second
// registration under a colliding hash with a different name is an error —
// the failure mode the mechanism must guard against.
func (r *Registry) Register(name string, k Kernel) (uint64, error) {
	return r.registerHashed(HashName(name), name, k)
}

// registerHashed is the guts of Register with the hash supplied by the
// caller, so the collision branch is reachable from tests without mining
// for real FNV-1a collisions.
func (r *Registry) registerHashed(h uint64, name string, k Kernel) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.byHash[h]; ok {
		if prev.name != name {
			return 0, fmt.Errorf("pp: hash collision: %q and %q both hash to %#x", prev.name, name, h)
		}
		return 0, fmt.Errorf("pp: kernel %q already registered", name)
	}
	r.byHash[h] = &kernelEntry{name: name, metric: "pp.kernel." + name, k: k}
	return h, nil
}

// MustRegister is Register that panics on error, for package-level tables.
func (r *Registry) MustRegister(name string, k Kernel) uint64 {
	h, err := r.Register(name, k)
	if err != nil {
		panic(err)
	}
	return h
}

// Launch dispatches the kernel registered under hash h on space s. The
// per-kernel count goes to the registry's observer (if set) and, when s is
// an Instrumented space, to that space's observer as well — so a model's
// launches are counted on its own observer without a registry-wide one.
func (r *Registry) Launch(h uint64, s Space, args any) error {
	r.mu.RLock()
	e, ok := r.byHash[h]
	obs := r.obs
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("pp: no kernel registered under hash %#x", h)
	}
	if obs != nil {
		obs.AddCount(e.metric, 1)
	}
	if in, isIn := s.(*Instrumented); isIn && in.o != nil {
		in.o.AddCount(e.metric, 1)
	}
	e.k(s, args)
	return nil
}

// MustLaunch is Launch that panics on error, for hot paths launching under
// hashes obtained from MustRegister (which cannot be unregistered).
func (r *Registry) MustLaunch(h uint64, s Space, args any) {
	if err := r.Launch(h, s, args); err != nil {
		panic(err)
	}
}
