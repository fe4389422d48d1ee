package pp

import "fmt"

// View3 is a rank-3 array view with (k, j, i) layout-right indexing —
// level outermost, longitude innermost — the memory layout of the ocean's
// field storage. It is the minimal analogue of a Kokkos::View sufficient for
// this reproduction.
type View3 struct {
	Data       []float64
	NK, NJ, NI int
	Label      string
}

// BindView3 wraps data as an nk × nj × ni view over the caller's buffer (no
// allocation, no copy), panicking on an extent/length mismatch — shape
// errors surface at bind time, not as silent out-of-range math inside a
// kernel. Kernel bodies grab Data and index flat: the Kokkos-subview idiom
// where the view is the binding/extent contract and the inner loop works on
// raw storage.
func BindView3(label string, data []float64, nk, nj, ni int) View3 {
	if nk < 0 || nj < 0 || ni < 0 || len(data) != nk*nj*ni {
		panic(fmt.Sprintf("pp: view %s binds %d elements to extents (%d,%d,%d)",
			label, len(data), nk, nj, ni))
	}
	return View3{Data: data, NK: nk, NJ: nj, NI: ni, Label: label}
}
