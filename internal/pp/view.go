package pp

import "fmt"

// View3 is a rank-3 array view with (k, j, i) layout-right indexing —
// level outermost, longitude innermost — the memory layout shared by the
// ocean and atmosphere field storage. It is the minimal analogue of a
// Kokkos::View sufficient for this reproduction.
type View3 struct {
	Data       []float64
	NK, NJ, NI int
	Label      string
}

// NewView3 allocates a zeroed nk × nj × ni view.
func NewView3(label string, nk, nj, ni int) *View3 {
	if nk < 0 || nj < 0 || ni < 0 {
		panic(fmt.Sprintf("pp: negative view extent %d/%d/%d", nk, nj, ni))
	}
	return &View3{
		Data: make([]float64, nk*nj*ni),
		NK:   nk, NJ: nj, NI: ni,
		Label: label,
	}
}

// Index returns the flat offset of (k, j, i).
func (v *View3) Index(k, j, i int) int { return (k*v.NJ+j)*v.NI + i }

// At returns the element at (k, j, i).
func (v *View3) At(k, j, i int) float64 { return v.Data[(k*v.NJ+j)*v.NI+i] }

// Set stores x at (k, j, i).
func (v *View3) Set(k, j, i int, x float64) { v.Data[(k*v.NJ+j)*v.NI+i] = x }

// Level returns the contiguous slice of level k (a nj × ni plane).
func (v *View3) Level(k int) []float64 {
	base := k * v.NJ * v.NI
	return v.Data[base : base+v.NJ*v.NI]
}

// Fill sets every element to x.
func (v *View3) Fill(x float64) {
	for i := range v.Data {
		v.Data[i] = x
	}
}

// CopyFrom copies another view's contents; extents must match.
func (v *View3) CopyFrom(src *View3) {
	if v.NK != src.NK || v.NJ != src.NJ || v.NI != src.NI {
		panic(fmt.Sprintf("pp: view copy extent mismatch %s(%d,%d,%d) <- %s(%d,%d,%d)",
			v.Label, v.NK, v.NJ, v.NI, src.Label, src.NK, src.NJ, src.NI))
	}
	copy(v.Data, src.Data)
}

// Size returns the total element count.
func (v *View3) Size() int { return len(v.Data) }

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
