// Package precision implements the mixed-precision machinery of §5.2.3: a
// group-wise scaling FP64/FP32 scheme for model state, and the accuracy
// metrics the paper uses to accept a mixed-precision configuration — the
// relative L2 norm for the atmosphere (surface pressure and relative
// vorticity, 5 % threshold) and the grid-area-weighted root-mean-square
// deviation for the tripolar-grid ocean (temperature, salinity, sea surface
// height).
package precision

import (
	"fmt"
	"math"
)

// Policy selects the arithmetic mode of a model component.
type Policy int

const (
	// FP64 keeps all state and arithmetic in float64 (the baseline).
	FP64 Policy = iota
	// Mixed stores designated variable groups in group-wise scaled FP32
	// while accumulations remain FP64.
	Mixed
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FP64:
		return "FP64"
	case Mixed:
		return "FP64/FP32 group-wise scaled"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// GroupScaled is a float64 vector stored as scaled float32 groups: each
// group of Group consecutive values shares one power-of-two scale chosen so
// the group's maximum magnitude uses the full float32 mantissa. This is the
// "group-wise scaling mixed-precision method" of §5.2.3: scaling prevents
// the dynamic-range loss that plain float64→float32 truncation suffers for
// fields spanning many orders of magnitude (e.g. moisture, pressure).
type GroupScaled struct {
	Group  int
	Scales []float64 // one per group, power of two
	Vals   []float32
	N      int
}

// The scale exponent is clamped to [minScaleExp, maxScaleExp]: above the
// cap the scale itself overflows (Ldexp(1, 1024) = +Inf) and below the
// floor its *inverse* does (1/2⁻¹⁰²⁴ = +Inf), either way turning the whole
// group into NaN/Inf on decode. maxQuant is the largest float32 below 2,
// the clamp bound for scaled values at the exponent cap.
const (
	maxScaleExp = 1023
	minScaleExp = -1023
)

var maxQuant = math.Nextafter32(2, 0)

// EncodeGroupScaled packs x into a GroupScaled with the given group size.
func EncodeGroupScaled(x []float64, group int) (*GroupScaled, error) {
	gs := &GroupScaled{}
	if err := EncodeGroupScaledInto(gs, x, group); err != nil {
		return nil, err
	}
	return gs, nil
}

// EncodeGroupScaledInto re-encodes x into gs with the given group size,
// reusing gs's scale and value storage when its capacity suffices — the
// steady-state form the snapshot writer uses so that a persistent
// GroupScaled performs zero allocations per encode.
func EncodeGroupScaledInto(gs *GroupScaled, x []float64, group int) error {
	if group <= 0 {
		return fmt.Errorf("precision: group size must be positive, got %d", group)
	}
	ng := (len(x) + group - 1) / group
	gs.Group = group
	gs.N = len(x)
	if cap(gs.Scales) < ng {
		gs.Scales = make([]float64, ng)
	}
	gs.Scales = gs.Scales[:ng]
	if cap(gs.Vals) < len(x) {
		gs.Vals = make([]float32, len(x))
	}
	gs.Vals = gs.Vals[:len(x)]
	for g := 0; g < ng; g++ {
		lo := g * group
		hi := lo + group
		if hi > len(x) {
			hi = len(x)
		}
		maxAbs := 0.0
		for _, v := range x[lo:hi] {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		scale := 1.0
		if maxAbs > 0 {
			// Power-of-two scale so the group max lands near 1: exact to
			// re-multiply, so scaling itself introduces no rounding error.
			_, exp := math.Frexp(maxAbs)
			// A scaled magnitude just below 1 can round UP to 1.0 in
			// float32; escalate the scale so stored values stay < 1 and a
			// re-encode of the decoded field reuses the same scale
			// (idempotence). Capped at the largest finite power of two —
			// beyond it Ldexp overflows to +Inf and the whole group would
			// decode as NaN.
			if exp < maxScaleExp && float32(math.Ldexp(maxAbs, -exp)) >= 1 {
				exp++
			}
			if exp > maxScaleExp {
				exp = maxScaleExp
			} else if exp < minScaleExp {
				// Subnormal group maxima: keep the inverse scale finite; the
				// scaled values land well below 1 and round-trip exactly on
				// the subnormal grid.
				exp = minScaleExp
			}
			scale = math.Ldexp(1, exp)
		}
		gs.Scales[g] = scale
		inv := 1 / scale
		for i := lo; i < hi; i++ {
			v := float32(x[i] * inv)
			// At the exponent cap the scaled max can still round to ≥ 1
			// (e.g. MaxFloat64·2⁻¹⁰²³ → 2.0f), and decoding 2.0·2¹⁰²³
			// overflows; clamp to the largest float32 below 2. The clamp
			// error is within the representation's own rounding bound.
			if v > maxQuant {
				v = maxQuant
			} else if v < -maxQuant {
				v = -maxQuant
			}
			gs.Vals[i] = v
		}
	}
	return nil
}

// ErrShape reports a structurally invalid GroupScaled payload: a destination
// length that does not match N, or an encoding whose own value/scale tables
// disagree with its declared shape (a truncated or corrupted payload).
// DecodeInto returns it instead of panicking.
type ErrShape struct {
	Got, Want int
	What      string // which length disagreed: "dst", "vals", "scales", "group"
}

// Error implements error.
func (e *ErrShape) Error() string {
	return fmt.Sprintf("precision: group-scaled %s length %d, want %d", e.What, e.Got, e.Want)
}

// DecodeInto unpacks gs into dst, validating every length against the
// declared shape before touching dst. Decode is its panicking form.
func (gs *GroupScaled) DecodeInto(dst []float64) error {
	if len(dst) != gs.N {
		return &ErrShape{Got: len(dst), Want: gs.N, What: "dst"}
	}
	if gs.Group <= 0 {
		return &ErrShape{Got: gs.Group, Want: 1, What: "group"}
	}
	if len(gs.Vals) != gs.N {
		return &ErrShape{Got: len(gs.Vals), Want: gs.N, What: "vals"}
	}
	if ng := (gs.N + gs.Group - 1) / gs.Group; len(gs.Scales) != ng {
		return &ErrShape{Got: len(gs.Scales), Want: ng, What: "scales"}
	}
	for i := 0; i < gs.N; i++ {
		dst[i] = float64(gs.Vals[i]) * gs.Scales[i/gs.Group]
	}
	return nil
}

// Decode unpacks into dst (allocated if nil) and returns it. It panics on a
// shape mismatch — the in-memory quantization contract, where the caller
// built the encoding itself.
func (gs *GroupScaled) Decode(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, gs.N)
	}
	if err := gs.DecodeInto(dst); err != nil {
		panic(err.Error())
	}
	return dst
}

// Bytes returns the storage footprint in bytes (values + scales), for the
// memory-saving accounting.
func (gs *GroupScaled) Bytes() int {
	return 4*len(gs.Vals) + 8*len(gs.Scales)
}

// QuantizeInPlace rounds x through the group-scaled FP32 representation,
// simulating one FP32 compute-and-store cycle on the field. Model steps
// under the Mixed policy call this on their designated variable groups.
func QuantizeInPlace(x []float64, group int) error {
	gs, err := EncodeGroupScaled(x, group)
	if err != nil {
		return err
	}
	return gs.DecodeInto(x)
}

// RelL2 returns the relative L2 norm of (a - b) against b:
// ‖a−b‖₂ / ‖b‖₂. This is the atmosphere acceptance metric (5 % threshold
// for surface pressure and relative vorticity deviations).
func RelL2(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("precision: RelL2 length mismatch %d vs %d", len(a), len(b))
	}
	var num, den float64
	for i := range a {
		d := a[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		if num == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return math.Sqrt(num / den), nil
}

// AreaWeightedRMSD returns sqrt(Σ w·(a−b)² / Σ w): the ocean acceptance
// metric, with w the tripolar-grid cell areas (§5.2.3 incorporates grid
// area because tripolar cells vary strongly in size).
func AreaWeightedRMSD(a, b, area []float64) (float64, error) {
	if len(a) != len(b) || len(a) != len(area) {
		return 0, fmt.Errorf("precision: RMSD length mismatch %d/%d/%d", len(a), len(b), len(area))
	}
	var num, den float64
	for i := range a {
		d := a[i] - b[i]
		num += area[i] * d * d
		den += area[i]
	}
	if den == 0 {
		return 0, fmt.Errorf("precision: zero total area")
	}
	return math.Sqrt(num / den), nil
}

// MaskedAreaRMSD is AreaWeightedRMSD restricted to points where mask is
// true (ocean-only comparison of T, S, SSH).
func MaskedAreaRMSD(a, b, area []float64, mask []bool) (float64, error) {
	if len(a) != len(b) || len(a) != len(area) || len(a) != len(mask) {
		return 0, fmt.Errorf("precision: masked RMSD length mismatch")
	}
	var num, den float64
	for i := range a {
		if !mask[i] {
			continue
		}
		d := a[i] - b[i]
		num += area[i] * d * d
		den += area[i]
	}
	if den == 0 {
		return 0, fmt.Errorf("precision: empty mask")
	}
	return math.Sqrt(num / den), nil
}

// Thresholds bundles the acceptance criteria of §5.2.3.
type Thresholds struct {
	AtmosRelL2   float64 // 0.05: surface pressure & vorticity
	OceanTempC   float64 // 0.018 °C reported RMSD scale
	OceanSaltPSU float64 // 0.0098 psu
	OceanSSHm    float64 // 0.0005 m
}

// PaperThresholds returns the paper's reported acceptance values.
func PaperThresholds() Thresholds {
	return Thresholds{
		AtmosRelL2:   0.05,
		OceanTempC:   0.018,
		OceanSaltPSU: 0.0098,
		OceanSSHm:    0.0005,
	}
}
