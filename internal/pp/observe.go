package pp

// Observer is the instrumentation hook consumed by the portability layer —
// the structural subset of obs.Observer it needs, declared locally so pp
// (at the bottom of the dependency order) does not import obs.
type Observer interface {
	AddCount(name string, delta int64)
}

// Instrumented wraps an execution space so every kernel launch and its
// iteration count are reported — the per-backend invocation accounting of
// §5.3. The wrapper preserves the inner space's name, concurrency, and
// scheduling.
type Instrumented struct {
	inner Space
	o     Observer
}

// Instrument wraps s with launch accounting on o. A nil observer returns s
// unchanged, so disabled observability costs nothing.
func Instrument(s Space, o Observer) Space {
	if o == nil {
		return s
	}
	if in, ok := s.(*Instrumented); ok {
		s = in.inner // re-instrumenting replaces the observer, not stacks it
	}
	return &Instrumented{inner: s, o: o}
}

// Name implements Space, transparently.
func (in *Instrumented) Name() string { return in.inner.Name() }

// Concurrency implements Space.
func (in *Instrumented) Concurrency() int { return in.inner.Concurrency() }

// ParallelFor implements Space, counting the launch before dispatch so the
// per-iteration path stays untouched.
func (in *Instrumented) ParallelFor(n int, f func(i int)) {
	in.o.AddCount("pp.for.launches", 1)
	in.o.AddCount("pp.for.iters", int64(n))
	in.inner.ParallelFor(n, f)
}
