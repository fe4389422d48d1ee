package statestore

import (
	"encoding/json"
	"errors"
	"math"
	"math/bits"
	"strconv"
)

// The HTTP replies are written without reflection: each reply type appends
// its own JSON, byte for byte what encoding/json makes of it, so the struct
// tags stay the contract clients decode with (TestRepliesMatchEncodingJSON
// pins the two together).

// errNonFinite reports a reply value JSON has no number for. encoding/json
// refuses NaN and ±Inf as well; the server answers 500 rather than 200 with
// a body cut short.
var errNonFinite = errors.New("statestore: reply holds a non-finite number, which JSON cannot carry")

// reply is a JSON reply being built, and the first error building it met.
type reply struct {
	b   []byte
	err error
}

func (r *reply) raw(s string) { r.b = append(r.b, s...) }

func (r *reply) int(v int) { r.b = strconv.AppendInt(r.b, int64(v), 10) }

// float appends f as encoding/json formats a float64: the shortest decimal
// that reads back as f, in exponent form below 1e-6 and from 1e21 on, with
// the exponent unpadded.
func (r *reply) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if r.err == nil {
			r.err = errNonFinite
		}
		r.b = append(r.b, "null"...)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	} else if b, ok := appendShort(r.b, f); ok {
		r.b = b
		return
	}
	r.b = strconv.AppendFloat(r.b, f, format, -1, 64)
	if n := len(r.b); format == 'e' && r.b[n-4] == 'e' && r.b[n-3] == '-' && r.b[n-2] == '0' {
		r.b[n-2] = r.b[n-1] // e-07 → e-7
		r.b = r.b[:n-1]
	}
}

// appendShort appends f in 'f' format if its exact decimal expansion has at
// most 15 significant digits, and reports whether it did. Such an expansion
// is the shortest decimal that reads back as f, so it is what strconv would
// write: any decimal with fewer digits lies at least 10⁻¹⁵ of f away,
// relative, and f's neighbours lie 2⁻⁵² ≈ 2.2·10⁻¹⁶ away. Stored values are
// float32s times a power of two, and whole seconds of simulated time: where
// the expansion is that short — surface pressure, sim time — this skips
// strconv's general shortest-digit search.
func appendShort(b []byte, f float64) ([]byte, bool) {
	fb := math.Float64bits(f)
	e := int(fb >> 52 & 0x7ff)
	if e == 0 {
		return b, false // zero or subnormal: leave to strconv
	}
	m := fb&(1<<52-1) | 1<<52
	e -= 1075 // |f| = m·2^e
	tz := bits.TrailingZeros64(m)
	m, e = m>>tz, e+tz
	const limit = 1e15 // the expansion's digits, as an integer, stay below it
	var n uint64       // |f| = n·10^-point
	point := 0
	switch {
	case e >= 0:
		if e >= 50 || m >= limit>>e {
			return b, false
		}
		n = m << e
	default:
		point = -e
		if point >= len(pow5) {
			return b, false
		}
		hi, lo := bits.Mul64(m, pow5[point])
		if hi != 0 || lo >= limit {
			return b, false
		}
		n = lo // m·2^-point = m·5^point·10^-point
	}
	if fb>>63 != 0 {
		b = append(b, '-')
	}
	var buf [24]byte
	digits := strconv.AppendUint(buf[:0], n, 10)
	switch whole := len(digits) - point; {
	case point == 0:
		b = append(b, digits...)
	case whole > 0:
		b = append(append(append(b, digits[:whole]...), '.'), digits[whole:]...)
	default:
		b = append(b, "0."...)
		for ; whole < 0; whole++ {
			b = append(b, '0')
		}
		b = append(b, digits...)
	}
	return b, true
}

// pow5 holds 5^i for every i at which 5^i·m can stay below 10¹⁵.
var pow5 = func() (p [22]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = 5 * p[i-1]
	}
	return p
}()

// string appends s quoted. A string of printable ASCII that encoding/json
// leaves alone — every field name the model writes — is copied; any other
// goes through encoding/json for its escapes.
func (r *reply) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			r.b = append(r.b, q...)
			return
		}
	}
	r.b = append(r.b, '"')
	r.b = append(r.b, s...)
	r.b = append(r.b, '"')
}

// jsonValue is a reply type that writes itself.
type jsonValue interface{ appendJSON(*reply) }

// list appends xs as a JSON array; nil is null, as encoding/json has it.
func list[T jsonValue](r *reply, xs []T) {
	if xs == nil {
		r.raw("null")
		return
	}
	r.b = append(r.b, '[')
	for i := range xs {
		if i > 0 {
			r.b = append(r.b, ',')
		}
		xs[i].appendJSON(r)
	}
	r.b = append(r.b, ']')
}

func (s Sample) appendJSON(r *reply) {
	r.raw(`{"snap":`)
	r.int(s.Snap)
	r.raw(`,"step":`)
	r.int(s.Step)
	r.raw(`,"sim_time":`)
	r.float(s.SimTime)
	r.raw(`,"value":`)
	r.float(s.Value)
	r.raw("}")
}

func (s RegionSample) appendJSON(r *reply) {
	r.raw(`{"snap":`)
	r.int(s.Snap)
	r.raw(`,"step":`)
	r.int(s.Step)
	r.raw(`,"sim_time":`)
	r.float(s.SimTime)
	r.raw(`,"min":`)
	r.float(s.Min)
	r.raw(`,"mean":`)
	r.float(s.Mean)
	r.raw(`,"max":`)
	r.float(s.Max)
	r.raw("}")
}

func (a Analog) appendJSON(r *reply) {
	r.raw(`{"snap":`)
	r.int(a.Snap)
	r.raw(`,"step":`)
	r.int(a.Step)
	r.raw(`,"sim_time":`)
	r.float(a.SimTime)
	r.raw(`,"dist":`)
	r.float(a.Dist)
	r.raw("}")
}

func (d Diag) appendJSON(r *reply) {
	r.raw(`{"snap":`)
	r.int(d.Snap)
	r.raw(`,"step":`)
	r.int(d.Step)
	r.raw(`,"sim_time":`)
	r.float(d.SimTime)
	r.raw(`,"min_ps":`)
	r.float(d.MinPs)
	r.raw(`,"min_ps_cell":`)
	r.int(d.MinPsCell)
	r.raw(`,"max_wind":`)
	r.float(d.MaxWind)
	r.raw(`,"max_wind_cell":`)
	r.int(d.MaxWindCell)
	r.raw(`,"heat_resid":`)
	r.float(d.HeatResid)
	r.raw(`,"fw_resid":`)
	r.float(d.FWResid)
	r.raw("}")
}

func (f FieldInfo) appendJSON(r *reply) {
	r.raw(`{"name":`)
	r.string(f.Name)
	r.raw(`,"elems":`)
	r.int(f.Elems)
	r.raw("}")
}

func (m metaReply) appendJSON(r *reply) {
	r.raw(`{"snapshots":`)
	r.int(m.Snapshots)
	r.raw(`,"group":`)
	r.int(m.Group)
	r.raw(`,"fields":`)
	list(r, m.Fields)
	r.raw(`,"first_step":`)
	r.int(m.FirstStep)
	r.raw(`,"last_step":`)
	r.int(m.LastStep)
	r.raw("}")
}
