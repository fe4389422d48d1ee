package aiphys

import (
	"fmt"
	"math"
	"math/rand"
)

// TendencyNet is the AI tendency module (§5.2.1): an 11-layer deep 1-D CNN
// comprising five residual units, convolving along the vertical column. It
// maps the five input fields (U, V, T, Q, P) to the four tendency fields
// (dU, dV, dT, dQ). With Width = 110 the trainable parameter count is
// ≈ 5×10⁵, the paper's figure; the default training configuration uses a
// narrower net for laptop-scale throughput.
type TendencyNet struct {
	Width  int
	NLev   int
	InC    int // 5: U, V, T, Q, P
	OutC   int // 4: dU, dV, dT, dQ
	Params *ParamSet

	// layer handles into Params: input conv, 5 res units × 2 convs, output conv.
	inW, inB   int
	resW, resB [][2]int
	outW, outB int
}

// NewTendencyNet builds the CNN with He-initialized weights.
func NewTendencyNet(width, nlev int, rng *rand.Rand) *TendencyNet {
	n := &TendencyNet{Width: width, NLev: nlev, InC: 5, OutC: 4, Params: NewParamSet()}
	n.inW = n.Params.Add(width*n.InC*3, heScale(n.InC*3), rng)
	n.inB = n.Params.Add(width, 0, rng)
	for u := 0; u < 5; u++ {
		var unit [2]int
		var unitB [2]int
		for j := 0; j < 2; j++ {
			unit[j] = n.Params.Add(width*width*3, heScale(width*3), rng)
			unitB[j] = n.Params.Add(width, 0, rng)
		}
		n.resW = append(n.resW, unit)
		n.resB = append(n.resB, unitB)
	}
	n.outW = n.Params.Add(n.OutC*width*3, heScale(width*3), rng)
	n.outB = n.Params.Add(n.OutC, 0, rng)
	return n
}

// tendencyTape records forward activations for backprop.
type tendencyTape struct {
	x       *Seq
	h0      *Seq
	m0      []bool
	resIn   []*Seq
	resMid  []*Seq
	resMask [][]bool // post-first-conv ReLU masks
	outMask []bool
	sum     []*Seq // res unit outputs after skip add + relu
}

// Forward runs the CNN on one column; tape is non-nil when training.
func (n *TendencyNet) Forward(x *Seq, tape *tendencyTape) *Seq {
	p := n.Params
	h := Conv1D(x, p.Val(n.inW), p.Val(n.inB), n.Width)
	m0 := ReLU(h.Data)
	if tape != nil {
		tape.x = x
		tape.h0 = h
		tape.m0 = m0
	}
	for u := 0; u < 5; u++ {
		in := h
		mid := Conv1D(in, p.Val(n.resW[u][0]), p.Val(n.resB[u][0]), n.Width)
		mask := ReLU(mid.Data)
		out := Conv1D(mid, p.Val(n.resW[u][1]), p.Val(n.resB[u][1]), n.Width)
		for i := range out.Data {
			out.Data[i] += in.Data[i] // residual skip
		}
		if tape != nil {
			tape.resIn = append(tape.resIn, in)
			tape.resMid = append(tape.resMid, mid)
			tape.resMask = append(tape.resMask, mask)
			tape.sum = append(tape.sum, out)
		}
		h = out
	}
	y := Conv1D(h, p.Val(n.outW), p.Val(n.outB), n.OutC)
	return y
}

// Backward propagates dy through the tape, accumulating gradients.
func (n *TendencyNet) Backward(tape *tendencyTape, dy *Seq) {
	p := n.Params
	h := tape.sum[4]
	dh := conv1DBackward(h, p.Val(n.outW), n.OutC, dy, p.Grad(n.outW), p.Grad(n.outB))
	for u := 4; u >= 0; u-- {
		// Through the skip: gradient flows both into the branch and past it.
		dmid := conv1DBackward(tape.resMid[u], p.Val(n.resW[u][1]), n.Width, dh, p.Grad(n.resW[u][1]), p.Grad(n.resB[u][1]))
		reluBackward(dmid.Data, tape.resMask[u])
		din := conv1DBackward(tape.resIn[u], p.Val(n.resW[u][0]), n.Width, dmid, p.Grad(n.resW[u][0]), p.Grad(n.resB[u][0]))
		for i := range din.Data {
			din.Data[i] += dh.Data[i] // skip path
		}
		dh = din
	}
	reluBackward(dh.Data, tape.m0)
	conv1DBackward(tape.x, p.Val(n.inW), n.Width, dh, p.Grad(n.inW), p.Grad(n.inB))
}

// RadiationNet is the AI radiation diagnosis module: a 7-layer MLP with
// residual connections mapping the column state plus skin temperature and
// cosine of the solar zenith angle to the surface downward shortwave and
// longwave fluxes (gsw, glw).
type RadiationNet struct {
	Width  int
	NLev   int
	InDim  int
	Params *ParamSet
	wIn    [2]int
	hidden [][2]int // 5 hidden layers with residual skips
	wOut   [2]int
}

// NewRadiationNet builds the MLP. Inputs: 5·nlev column variables + tskin +
// coszr.
func NewRadiationNet(width, nlev int, rng *rand.Rand) *RadiationNet {
	n := &RadiationNet{Width: width, NLev: nlev, InDim: 5*nlev + 2, Params: NewParamSet()}
	n.wIn = [2]int{
		n.Params.Add(width*n.InDim, heScale(n.InDim), rng),
		n.Params.Add(width, 0, rng),
	}
	for i := 0; i < 5; i++ {
		n.hidden = append(n.hidden, [2]int{
			n.Params.Add(width*width, heScale(width), rng),
			n.Params.Add(width, 0, rng),
		})
	}
	n.wOut = [2]int{
		n.Params.Add(2*width, heScale(width), rng),
		n.Params.Add(2, 0, rng),
	}
	return n
}

type radiationTape struct {
	x      []float32
	acts   [][]float32 // pre-skip activations per hidden layer input
	masks  [][]bool
	hidden [][]float32
}

// Forward runs the MLP; tape non-nil when training.
func (n *RadiationNet) Forward(x []float32, tape *radiationTape) []float32 {
	p := n.Params
	h := MatVec(p.Val(n.wIn[0]), p.Val(n.wIn[1]), x, n.Width)
	m := ReLU(h)
	if tape != nil {
		tape.x = x
		tape.acts = append(tape.acts, h)
		tape.masks = append(tape.masks, m)
	}
	for _, l := range n.hidden {
		in := h
		z := MatVec(p.Val(l[0]), p.Val(l[1]), in, n.Width)
		mz := ReLU(z)
		out := make([]float32, n.Width)
		for i := range out {
			out[i] = z[i] + in[i] // residual
		}
		if tape != nil {
			tape.hidden = append(tape.hidden, in)
			tape.acts = append(tape.acts, z)
			tape.masks = append(tape.masks, mz)
		}
		h = out
	}
	if tape != nil {
		tape.hidden = append(tape.hidden, h)
	}
	return MatVec(p.Val(n.wOut[0]), p.Val(n.wOut[1]), h, 2)
}

// Backward propagates dy (length 2) through the tape.
func (n *RadiationNet) Backward(tape *radiationTape, dy []float32) {
	p := n.Params
	dh := matVecBackward(p.Val(n.wOut[0]), tape.hidden[len(tape.hidden)-1], dy, p.Grad(n.wOut[0]), p.Grad(n.wOut[1]))
	for i := len(n.hidden) - 1; i >= 0; i-- {
		l := n.hidden[i]
		dz := append([]float32(nil), dh...)
		reluBackward(dz, tape.masks[i+1])
		din := matVecBackward(p.Val(l[0]), tape.hidden[i], dz, p.Grad(l[0]), p.Grad(l[1]))
		for j := range din {
			din[j] += dh[j] // skip path
		}
		dh = din
	}
	reluBackward(dh, tape.masks[0])
	matVecBackward(p.Val(n.wIn[0]), tape.x, dh, p.Grad(n.wIn[0]), p.Grad(n.wIn[1]))
}

// ParamSet owns flat parameter and gradient storage for a network.
type ParamSet struct {
	vals  [][]float32
	grads [][]float32
}

// NewParamSet returns an empty set.
func NewParamSet() *ParamSet { return &ParamSet{} }

// Add allocates a parameter tensor of n values with N(0, scale²) init
// (zero when scale is 0, for biases) and returns its handle.
func (p *ParamSet) Add(n int, scale float64, rng *rand.Rand) int {
	v := make([]float32, n)
	if scale > 0 {
		for i := range v {
			v[i] = float32(rng.NormFloat64() * scale)
		}
	}
	p.vals = append(p.vals, v)
	p.grads = append(p.grads, make([]float32, n))
	return len(p.vals) - 1
}

// Val returns the parameter values for a handle.
func (p *ParamSet) Val(h int) []float32 { return p.vals[h] }

// Grad returns the gradient accumulator for a handle.
func (p *ParamSet) Grad(h int) []float32 { return p.grads[h] }

// ZeroGrad clears all gradients.
func (p *ParamSet) ZeroGrad() {
	for _, g := range p.grads {
		for i := range g {
			g[i] = 0
		}
	}
}

// Count returns the total trainable parameter count.
func (p *ParamSet) Count() int {
	n := 0
	for _, v := range p.vals {
		n += len(v)
	}
	return n
}

// heScale returns the He-initialization standard deviation for fan-in f.
func heScale(f int) float64 { return math.Sqrt(2 / float64(f)) }

// Adam is the Adam optimizer over a ParamSet.
type Adam struct {
	LR             float64
	Beta1, Beta2   float64
	Eps            float64
	t              int
	m, v           [][]float32
	set            *ParamSet
	clippedUpdates int
}

// NewAdam returns an optimizer with the standard hyperparameters.
func NewAdam(set *ParamSet, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, set: set}
	for _, p := range set.vals {
		a.m = append(a.m, make([]float32, len(p)))
		a.v = append(a.v, make([]float32, len(p)))
	}
	return a
}

// Step applies one Adam update from the accumulated gradients.
func (a *Adam) Step() {
	a.t++
	b1c := 1 - math.Pow(a.Beta1, float64(a.t))
	b2c := 1 - math.Pow(a.Beta2, float64(a.t))
	for h, p := range a.set.vals {
		g := a.set.grads[h]
		m, v := a.m[h], a.v[h]
		for i := range p {
			gi := float64(g[i])
			m[i] = float32(a.Beta1*float64(m[i]) + (1-a.Beta1)*gi)
			v[i] = float32(a.Beta2*float64(v[i]) + (1-a.Beta2)*gi*gi)
			mHat := float64(m[i]) / b1c
			vHat := float64(v[i]) / b2c
			p[i] -= float32(a.LR * mHat / (math.Sqrt(vHat) + a.Eps))
		}
	}
}

// String implements fmt.Stringer for debugging.
func (a *Adam) String() string {
	return fmt.Sprintf("Adam(lr=%g, t=%d)", a.LR, a.t)
}
