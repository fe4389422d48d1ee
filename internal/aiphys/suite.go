package aiphys

import (
	"fmt"
	"math/rand"

	"repro/internal/atmos"
)

// Suite is the AI-powered resolution-adaptive physics suite (§5.2.1,
// Fig 4): the AI tendency module and the AI radiation diagnosis module
// replace the conventional parameterizations, while the conventional
// diagnostic module (surface stress, fluxes, condensation/precipitation
// bookkeeping) is retained. It implements atmos.Suite, so the atmosphere's
// physics–dynamics coupling interface is untouched — the property that
// makes the suite portable across architectures.
type Suite struct {
	CNN  *TendencyNet
	MLP  *RadiationNet
	Norm *Normalizer
	// Diagnostic is the conventional diagnostic module retained by the AI
	// suite for surface exchange and precipitation bookkeeping.
	Diagnostic atmos.Suite
	nlev       int
}

// NewSuite assembles the AI suite from trained networks.
func NewSuite(cnn *TendencyNet, mlp *RadiationNet, norm *Normalizer, diagnostic atmos.Suite) (*Suite, error) {
	if cnn.NLev != mlp.NLev {
		return nil, fmt.Errorf("aiphys: CNN has %d levels, MLP %d", cnn.NLev, mlp.NLev)
	}
	if norm == nil || diagnostic == nil {
		return nil, fmt.Errorf("aiphys: nil normalizer or diagnostic module")
	}
	return &Suite{CNN: cnn, MLP: mlp, Norm: norm, Diagnostic: diagnostic, nlev: cnn.NLev}, nil
}

// TrainedSuite generates a dataset from the model's conventional suite,
// trains paper-architecture networks at the given width, and returns the
// assembled AI suite along with the training summary.
func TrainedSuite(m *atmos.Model, width, nSamples, epochs int, seed int64) (*Suite, *TrainResult, error) {
	ds, err := GenerateDataset(m, nSamples, seed)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	cnn := NewTendencyNet(width, m.NLev, rng)
	mlp := NewRadiationNet(width*2, m.NLev, rng)
	res := Train(cnn, mlp, ds, epochs, 1e-3, seed+2)
	diag := atmos.NewConventionalSuite(m)
	diag.DisableRadiation = true // the AI radiation module replaces it
	suite, err := NewSuite(cnn, mlp, ds.Norm, diag)
	if err != nil {
		return nil, nil, err
	}
	return suite, res, nil
}

// Name implements atmos.Suite.
func (s *Suite) Name() string { return "ai-powered" }

// Column implements atmos.Suite: tendencies from the CNN, surface radiation
// from the MLP, surface exchange and precipitation from the conventional
// diagnostic module.
func (s *Suite) Column(in atmos.ColumnIn, dt float64, out *atmos.ColumnOut) {
	nlev := s.nlev
	// Run the conventional diagnostic module first; the AI modules then
	// overwrite the tendency and radiation fields.
	s.Diagnostic.Column(in, dt, out)

	x := NewSeq(5, nlev)
	for k := 0; k < nlev; k++ {
		x.Set(0, k, s.Norm.norm(nvU, in.U[k]))
		x.Set(1, k, s.Norm.norm(nvV, in.V[k]))
		x.Set(2, k, s.Norm.norm(nvT, in.T[k]))
		x.Set(3, k, s.Norm.norm(nvQ, in.Q[k]))
		x.Set(4, k, s.Norm.norm(nvP, in.P[k]))
	}
	pred := s.CNN.Forward(x, nil)
	for k := 0; k < nlev; k++ {
		out.DU[k] = s.Norm.denorm(nvDU, pred.At(0, k))
		out.DV[k] = s.Norm.denorm(nvDV, pred.At(1, k))
		out.DT[k] = s.Norm.denorm(nvDT, pred.At(2, k))
		out.DQ[k] = s.Norm.denorm(nvDQ, pred.At(3, k))
	}

	if in.SkipRad {
		return // nothing will read this column's diagnosis; out.GSW/GLW stay as they are
	}
	radIn := make([]float32, 5*nlev+2)
	copy(radIn, x.Data)
	radIn[5*nlev] = s.Norm.norm(nvTSkin, in.TSkin)
	radIn[5*nlev+1] = s.Norm.norm(nvCosZ, in.CosZ)
	rad := s.MLP.Forward(radIn, nil)
	gsw := s.Norm.denorm(nvGSW, rad[0])
	glw := s.Norm.denorm(nvGLW, rad[1])
	if gsw < 0 {
		gsw = 0
	}
	if glw < 0 {
		glw = 0
	}
	out.GSW = gsw
	out.GLW = glw
}
