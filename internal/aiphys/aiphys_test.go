package aiphys

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/atmos"
	"repro/internal/pp"
)

// naiveConv1D is the reference implementation for property testing.
func naiveConv1D(x *Seq, w []float32, b []float32, cout int) *Seq {
	y := NewSeq(cout, x.L)
	for co := 0; co < cout; co++ {
		for pos := 0; pos < x.L; pos++ {
			acc := b[co]
			for ci := 0; ci < x.C; ci++ {
				for dl := -1; dl <= 1; dl++ {
					p := pos + dl
					if p < 0 || p >= x.L {
						continue
					}
					acc += w[(co*x.C+ci)*3+dl+1] * x.At(ci, p)
				}
			}
			y.Set(co, pos, acc)
		}
	}
	return y
}

func TestConv1DMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cin := 1 + rng.Intn(4)
		cout := 1 + rng.Intn(4)
		l := 2 + rng.Intn(20)
		x := NewSeq(cin, l)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		w := make([]float32, cout*cin*3)
		for i := range w {
			w[i] = float32(rng.NormFloat64())
		}
		b := make([]float32, cout)
		for i := range b {
			b[i] = float32(rng.NormFloat64())
		}
		got := Conv1D(x, w, b, cout)
		want := naiveConv1D(x, w, b, cout)
		for i := range got.Data {
			if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConv1DShapeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad weight shape")
		}
	}()
	Conv1D(NewSeq(2, 5), make([]float32, 3), make([]float32, 1), 1)
}

func TestMatVec(t *testing.T) {
	w := []float32{1, 2, 3, 4, 5, 6} // 2x3
	b := []float32{10, 20}
	y := MatVec(w, b, []float32{1, 1, 1}, 2)
	if y[0] != 16 || y[1] != 35 {
		t.Errorf("y = %v", y)
	}
}

func TestReLUAndBackward(t *testing.T) {
	x := []float32{-1, 0, 2}
	mask := ReLU(x)
	if x[0] != 0 || x[1] != 0 || x[2] != 2 {
		t.Errorf("relu = %v", x)
	}
	dy := []float32{5, 5, 5}
	reluBackward(dy, mask)
	if dy[0] != 0 || dy[1] != 0 || dy[2] != 5 {
		t.Errorf("relu backward = %v", dy)
	}
}

// Finite-difference gradient check for the full CNN: perturb random
// parameters, compare the backprop gradient with the central difference.
func TestCNNGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cnn := NewTendencyNet(6, 8, rng)
	x := NewSeq(5, 8)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	target := NewSeq(4, 8)
	for i := range target.Data {
		target.Data[i] = float32(rng.NormFloat64())
	}
	loss := func() float64 {
		pred := cnn.Forward(x, nil)
		var l float64
		for i := range pred.Data {
			d := float64(pred.Data[i] - target.Data[i])
			l += d * d
		}
		return l
	}
	// Backprop gradient.
	cnn.Params.ZeroGrad()
	var tape tendencyTape
	pred := cnn.Forward(x, &tape)
	dy := NewSeq(4, 8)
	for i := range pred.Data {
		dy.Data[i] = 2 * (pred.Data[i] - target.Data[i])
	}
	cnn.Backward(&tape, dy)

	// Check a handful of parameters across different tensors.
	checked := 0
	for h := 0; h < len(cnn.Params.vals); h += 3 {
		vals := cnn.Params.Val(h)
		if len(vals) == 0 {
			continue
		}
		i := rng.Intn(len(vals))
		const eps = 1e-2
		orig := vals[i]
		vals[i] = orig + eps
		lp := loss()
		vals[i] = orig - eps
		lm := loss()
		vals[i] = orig
		fd := (lp - lm) / (2 * eps)
		bp := float64(cnn.Params.Grad(h)[i])
		if math.Abs(fd-bp) > 0.05*math.Max(math.Abs(fd), math.Abs(bp))+0.02 {
			t.Errorf("param %d[%d]: finite-diff %.5f vs backprop %.5f", h, i, fd, bp)
		}
		checked++
	}
	if checked < 4 {
		t.Fatalf("only %d parameters checked", checked)
	}
}

func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mlp := NewRadiationNet(8, 6, rng)
	x := make([]float32, mlp.InDim)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	target := []float32{0.3, -0.7}
	loss := func() float64 {
		p := mlp.Forward(x, nil)
		var l float64
		for i := range p {
			d := float64(p[i] - target[i])
			l += d * d
		}
		return l
	}
	mlp.Params.ZeroGrad()
	var tape radiationTape
	p := mlp.Forward(x, &tape)
	dy := make([]float32, 2)
	for i := range p {
		dy[i] = 2 * (p[i] - target[i])
	}
	mlp.Backward(&tape, dy)
	for h := 0; h < len(mlp.Params.vals); h += 2 {
		vals := mlp.Params.Val(h)
		i := rng.Intn(len(vals))
		const eps = 1e-2
		orig := vals[i]
		vals[i] = orig + eps
		lp := loss()
		vals[i] = orig - eps
		lm := loss()
		vals[i] = orig
		fd := (lp - lm) / (2 * eps)
		bp := float64(mlp.Params.Grad(h)[i])
		if math.Abs(fd-bp) > 0.05*math.Max(math.Abs(fd), math.Abs(bp))+0.02 {
			t.Errorf("param %d[%d]: fd %.5f vs bp %.5f", h, i, fd, bp)
		}
	}
}

func TestResidualSkipIdentityAtZeroWeights(t *testing.T) {
	// With all residual-unit weights zeroed, the CNN is input-conv + relu
	// passed through unchanged: residual units become identity.
	rng := rand.New(rand.NewSource(3))
	cnn := NewTendencyNet(5, 6, rng)
	for u := 0; u < 5; u++ {
		for j := 0; j < 2; j++ {
			for i := range cnn.Params.Val(cnn.resW[u][j]) {
				cnn.Params.Val(cnn.resW[u][j])[i] = 0
			}
			for i := range cnn.Params.Val(cnn.resB[u][j]) {
				cnn.Params.Val(cnn.resB[u][j])[i] = 0
			}
		}
	}
	x := NewSeq(5, 6)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	h := Conv1D(x, cnn.Params.Val(cnn.inW), cnn.Params.Val(cnn.inB), cnn.Width)
	ReLU(h.Data)
	want := Conv1D(h, cnn.Params.Val(cnn.outW), cnn.Params.Val(cnn.outB), cnn.OutC)
	got := cnn.Forward(x, nil)
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("residual units not identity at zero weights")
		}
	}
}

func TestPaperScaleParameterCount(t *testing.T) {
	// The paper's tendency module has ≈ 5×10⁵ trainable parameters; the
	// architecture at width 110 lands in that range.
	rng := rand.New(rand.NewSource(4))
	cnn := NewTendencyNet(110, 30, rng)
	n := cnn.Params.Count()
	if n < 3.5e5 || n > 6.5e5 {
		t.Errorf("width-110 CNN has %d params, want ≈ 5e5", n)
	}
	// The paper's "11-layer deep CNN": the input convolution and the five
	// residual units' ten; the linear output head is not counted.
	if layers := 1 + 2*len(cnn.resW); layers != 11 {
		t.Errorf("layers = %d, want 11", layers)
	}
	// The "7-layer" MLP: input, five residual hidden layers, output.
	mlp := NewRadiationNet(64, 30, rng)
	if layers := 1 + len(mlp.hidden) + 1; layers != 7 {
		t.Errorf("MLP layers = %d, want 7", layers)
	}
}

func TestAdamReducesQuadraticLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	set := NewParamSet()
	h := set.Add(10, 1, rng)
	opt := NewAdam(set, 0.05)
	loss := func() float64 {
		var l float64
		for _, v := range set.Val(h) {
			l += float64(v) * float64(v)
		}
		return l
	}
	l0 := loss()
	for it := 0; it < 200; it++ {
		set.ZeroGrad()
		for i, v := range set.Val(h) {
			set.Grad(h)[i] = 2 * v
		}
		opt.Step()
	}
	if l1 := loss(); l1 > l0/100 {
		t.Errorf("Adam failed to minimize: %v -> %v", l0, l1)
	}
}

func newSmallModel(t *testing.T) *atmos.Model {
	t.Helper()
	m, err := atmos.New(2, 8, atmos.DefaultConfig(), pp.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerateDatasetSplit(t *testing.T) {
	m := newSmallModel(t)
	ds, err := GenerateDataset(m, 80, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Test) != 10 {
		t.Errorf("test set %d, want 80/8 = 10", len(ds.Test))
	}
	if len(ds.Train)+len(ds.Test)+len(ds.Val) != 80 {
		t.Error("split loses samples")
	}
	// Normalized inputs should be O(1).
	var maxAbs float32
	for _, s := range ds.Train {
		for _, v := range s.X.Data {
			if a := absf(v); a > maxAbs {
				maxAbs = a
			}
		}
	}
	if maxAbs > 20 {
		t.Errorf("normalization failed: max |x| = %v", maxAbs)
	}
	if _, err := GenerateDataset(m, 4, 1); err == nil {
		t.Error("tiny dataset accepted")
	}
}

func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

func TestTrainingReducesLoss(t *testing.T) {
	m := newSmallModel(t)
	ds, err := GenerateDataset(m, 120, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	cnn := NewTendencyNet(8, m.NLev, rng)
	mlp := NewRadiationNet(16, m.NLev, rng)
	res := Train(cnn, mlp, ds, 12, 1e-3, 13)
	if res.TestLossCNN >= res.InitialCNN {
		t.Errorf("CNN test loss did not improve: %v -> %v", res.InitialCNN, res.TestLossCNN)
	}
	if res.TestLossMLP >= res.InitialMLP {
		t.Errorf("MLP test loss did not improve: %v -> %v", res.InitialMLP, res.TestLossMLP)
	}
	// Training loss decreases over epochs (first vs last).
	if res.TrainLossCNN[len(res.TrainLossCNN)-1] >= res.TrainLossCNN[0] {
		t.Error("CNN training loss not decreasing")
	}
	if res.TrainLossMLP[len(res.TrainLossMLP)-1] >= res.TrainLossMLP[0] {
		t.Error("MLP training loss not decreasing")
	}
}

func TestAISuitePlugCompatibility(t *testing.T) {
	m := newSmallModel(t)
	suite, res, err := TrainedSuite(m, 8, 120, 8, 21)
	if err != nil {
		t.Fatal(err)
	}
	if suite.Name() != "ai-powered" {
		t.Error(suite.Name())
	}
	if res.TestLossCNN <= 0 {
		t.Error("no test loss recorded")
	}
	// Swap it in and run the model: must stay finite and produce sensible
	// radiation diagnostics.
	m.Physics = suite
	for s := 0; s < 2*m.Cfg.PhysicsEvery; s++ {
		m.Step()
	}
	if w := m.MaxWind(); math.IsNaN(w) || w > 300 {
		t.Fatalf("model unstable under AI physics: max wind %v", w)
	}
	var anyGSW bool
	for _, g := range m.GSW {
		if math.IsNaN(g) || g < 0 || g > 2000 {
			t.Fatalf("GSW out of range: %v", g)
		}
		if g > 0 {
			anyGSW = true
		}
	}
	if !anyGSW {
		t.Error("AI radiation produced zero shortwave everywhere")
	}
}

func TestSuiteValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cnn := NewTendencyNet(4, 5, rng)
	mlp := NewRadiationNet(4, 6, rng) // level mismatch
	if _, err := NewSuite(cnn, mlp, &Normalizer{}, nil); err == nil {
		t.Error("level mismatch accepted")
	}
	mlp2 := NewRadiationNet(4, 5, rng)
	if _, err := NewSuite(cnn, mlp2, nil, nil); err == nil {
		t.Error("nil normalizer accepted")
	}
}

// The AI suite must track the conventional suite on held-out columns much
// better than a zero-tendency baseline — the accuracy criterion of E1.
func TestAISuiteAccuracyAgainstConventional(t *testing.T) {
	m := newSmallModel(t)
	ds, err := GenerateDataset(m, 500, 31)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	cnn := NewTendencyNet(10, m.NLev, rng)
	mlp := NewRadiationNet(20, m.NLev, rng)
	res := Train(cnn, mlp, ds, 30, 3e-3, 33)
	// Targets are normalized to unit variance, so a zero predictor scores
	// ≈ 1.0; the trained nets must beat it clearly.
	if res.TestLossCNN > 0.7 {
		t.Errorf("CNN test loss %.3f too close to the zero-predictor baseline", res.TestLossCNN)
	}
	if res.TestLossMLP > 0.5 {
		t.Errorf("MLP test loss %.3f too close to baseline", res.TestLossMLP)
	}
}

func TestSuiteSaveLoadRoundTrip(t *testing.T) {
	m := newSmallModel(t)
	suite, _, err := TrainedSuite(m, 6, 80, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/suite.bin"
	if err := suite.Save(path); err != nil {
		t.Fatal(err)
	}
	cnn, mlp, norm, err := LoadWeights(path)
	if err != nil {
		t.Fatal(err)
	}
	diag := atmos.NewConventionalSuite(m)
	diag.DisableRadiation = true
	loaded, err := NewSuite(cnn, mlp, norm, diag)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions on a random column.
	nlev := m.NLev
	in := atmos.ColumnIn{
		U: make([]float64, nlev), V: make([]float64, nlev),
		T: make([]float64, nlev), Q: make([]float64, nlev),
		P:   make([]float64, nlev),
		Lat: 0.5, TSkin: 295, CosZ: 0.4,
	}
	for k := 0; k < nlev; k++ {
		in.T[k] = 260 + float64(k)
		in.P[k] = m.Sig[k] * 1e5
		in.Q[k] = 0.002
	}
	mk := func() *atmos.ColumnOut {
		return &atmos.ColumnOut{
			DT: make([]float64, nlev), DQ: make([]float64, nlev),
			DU: make([]float64, nlev), DV: make([]float64, nlev),
		}
	}
	a, b := mk(), mk()
	suite.Column(in, 480, a)
	loaded.Column(in, 480, b)
	for k := 0; k < nlev; k++ {
		if a.DT[k] != b.DT[k] || a.DQ[k] != b.DQ[k] {
			t.Fatalf("loaded suite diverges at level %d", k)
		}
	}
	if a.GSW != b.GSW || a.GLW != b.GLW {
		t.Fatal("loaded radiation diverges")
	}
	// A column marked SkipRad keeps the caller's held radiation and every
	// tendency.
	in.SkipRad = true
	held := mk()
	held.GSW, held.GLW = -1, -2
	suite.Column(in, 480, held)
	if held.GSW != -1 || held.GLW != -2 {
		t.Errorf("SkipRad column overwrote the held radiation: %v/%v", held.GSW, held.GLW)
	}
	for k := 0; k < nlev; k++ {
		if held.DT[k] != a.DT[k] || held.DQ[k] != a.DQ[k] {
			t.Fatalf("SkipRad changed the tendencies at level %d", k)
		}
	}
	// Corrupt/missing files rejected.
	if _, _, _, err := LoadWeights(path + ".nope"); err == nil {
		t.Error("missing file accepted")
	}
}
