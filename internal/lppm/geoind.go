package lppm

import (
	"fmt"
	"math"

	"apisense/internal/geo"
	"apisense/internal/trace"
)

// GeoInd implements geo-indistinguishability (Andrés et al., CCS 2013): each
// fix is perturbed with planar Laplace noise of privacy parameter Epsilon
// (in 1/metres). It is the "recent state-of-the-art protection mechanism"
// of the paper's claim C1: strong guarantees per fix, but repeated dwells
// average the noise out, so points of interest survive.
//
// The noise radius follows the distribution with density ε²·r·e^(−εr), i.e.
// a Gamma(2, rate ε) variable, sampled exactly as the sum of two
// exponentials; the angle is uniform. The expected displacement is 2/ε.
type GeoInd struct {
	// Epsilon is the privacy parameter in 1/metres. Smaller means more
	// privacy (more noise).
	Epsilon float64
	// Seed drives the deterministic noise streams.
	Seed uint64
}

var _ Mechanism = (*GeoInd)(nil)

// NewGeoInd returns a geo-indistinguishability mechanism.
func NewGeoInd(epsilon float64, seed uint64) (*GeoInd, error) {
	if epsilon <= 0 || math.IsNaN(epsilon) || math.IsInf(epsilon, 0) {
		return nil, fmt.Errorf("lppm: geoind epsilon must be positive and finite, got %v", epsilon)
	}
	return &GeoInd{Epsilon: epsilon, Seed: seed}, nil
}

// Name implements Mechanism.
func (g *GeoInd) Name() string { return fmt.Sprintf("geoind(eps=%g)", g.Epsilon) }

// Protect implements Mechanism.
func (g *GeoInd) Protect(dst []trace.Record, t *trace.Trajectory) ([]trace.Record, error) {
	rng := trajectoryRNG(g.Seed, t)
	for _, rec := range t.Records {
		// Gamma(2, eps) radius: sum of two Exp(eps) draws.
		u1 := rng.Float64()
		u2 := rng.Float64()
		for u1 == 0 {
			u1 = rng.Float64()
		}
		for u2 == 0 {
			u2 = rng.Float64()
		}
		r := -(math.Log(u1) + math.Log(u2)) / g.Epsilon
		sin, cos := math.Sincos(rng.Float64() * 2 * math.Pi)
		rec.Pos = geo.Translate(rec.Pos, r*cos, r*sin)
		dst = append(dst, rec)
	}
	return dst, nil
}

// GaussianNoise perturbs every fix with isotropic Gaussian noise of the
// given standard deviation in metres. It is the naive obfuscation baseline.
type GaussianNoise struct {
	// Sigma is the per-axis standard deviation in metres.
	Sigma float64
	// Seed drives the deterministic noise streams.
	Seed uint64
}

var _ Mechanism = (*GaussianNoise)(nil)

// NewGaussianNoise returns a Gaussian perturbation mechanism.
func NewGaussianNoise(sigma float64, seed uint64) (*GaussianNoise, error) {
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("lppm: gaussian sigma must be positive and finite, got %v", sigma)
	}
	return &GaussianNoise{Sigma: sigma, Seed: seed}, nil
}

// Name implements Mechanism.
func (g *GaussianNoise) Name() string { return fmt.Sprintf("gaussian(sigma=%g)", g.Sigma) }

// Protect implements Mechanism.
func (g *GaussianNoise) Protect(dst []trace.Record, t *trace.Trajectory) ([]trace.Record, error) {
	rng := trajectoryRNG(g.Seed, t)
	for _, rec := range t.Records {
		rec.Pos = geo.Translate(rec.Pos, rng.NormFloat64()*g.Sigma, rng.NormFloat64()*g.Sigma)
		dst = append(dst, rec)
	}
	return dst, nil
}
