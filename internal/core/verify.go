package core

import (
	"fmt"
	"math"

	"pufferfish/internal/dist"
	"pufferfish/internal/laplace"
	"pufferfish/internal/markov"
)

// VerifyChainPufferfish analytically checks Definition 2.1 for an
// additive-Laplace release of the integer-weighted count query
// F(X) = Σ_t w[X_t] on a chain class: for every θ ∈ Θ, every secret
// pair (X_i = a, X_i = b) with both secrets of positive probability,
// and every output w on an evaluation grid, the output densities
//
//	P(M(X) = w | s, θ) = Σ_t P(F = t | s, θ) · Lap_scale(w − t)
//
// must have a log-ratio within [−ε − slack, ε + slack].
//
// It computes the conditional distributions of F exactly (the batched
// dynamic programs of the chain substrate, no Monte-Carlo), so it is a
// genuine end-to-end check of Theorems 3.2/4.3 for the scales the
// mechanisms choose. Intended for tests on small chains: cost is
// O(T²k²) per (θ, i).
func VerifyChainPufferfish(class markov.Class, w []int, scale, eps, slack float64, grid []float64) error {
	if err := checkEpsilon(eps); err != nil {
		return err
	}
	if scale <= 0 {
		return fmt.Errorf("core: invalid noise scale %v", scale)
	}
	specs, pairs, err := chainSecretPairs(class, w)
	if err != nil {
		return err
	}
	return verifyPairs(specs, pairs, scale, eps, slack, grid)
}

// chainSecretPairs returns a chain class's secret pairs and their
// conditional count distributions, aligned.
func chainSecretPairs(class markov.Class, w []int) ([]SecretSpec, []DistributionPair, error) {
	sub := NewClassSubstrate(class)
	specs, err := sub.SecretPairs()
	if err != nil {
		return nil, nil, err
	}
	pairs, err := CountInstance{Substrate: sub, W: w}.ConditionalPairs()
	return specs, pairs, err
}

// verifyPairs is the grid check of VerifyChainPufferfish over
// precomputed pairs, reporting the first violation in spec order.
func verifyPairs(specs []SecretSpec, pairs []DistributionPair, scale, eps, slack float64, grid []float64) error {
	noise := laplace.New(scale)
	for j, sp := range specs {
		for _, out := range grid {
			pa := releaseDensity(pairs[j].Mu, noise, out)
			pb := releaseDensity(pairs[j].Nu, noise, out)
			//privlint:allow floatcompare exact-zero densities on both sides make the ratio vacuous
			if pa == 0 && pb == 0 {
				continue
			}
			logRatio := math.Log(pa / pb)
			if math.Abs(logRatio) > eps+slack {
				return fmt.Errorf(
					"core: privacy violated: θ_%d, node %d, pair (%d,%d), output %.3f: |log ratio| = %.4f > ε = %.4f",
					sp.Theta, sp.Pos, sp.A, sp.B, out, math.Abs(logRatio), eps)
			}
		}
	}
	return nil
}

// releaseDensity returns the density of F + Lap(scale) at out given
// the exact distribution of F.
func releaseDensity(d dist.Discrete, noise laplace.Dist, out float64) float64 {
	var p float64
	for idx := 0; idx < d.Len(); idx++ {
		x, mass := d.Atom(idx)
		p += mass * noise.PDF(out-x)
	}
	return p
}

// MinimalPrivateScale searches (by bisection) for the smallest Laplace
// scale that passes VerifyChainPufferfish on the grid — used by tests
// to confirm the mechanisms are not wildly over- or under-noising
// relative to the information-theoretic requirement on small
// instances. The conditional distributions are computed once and
// reused by every probe.
func MinimalPrivateScale(class markov.Class, w []int, eps float64, grid []float64) (float64, error) {
	if err := checkEpsilon(eps); err != nil {
		return 0, err
	}
	specs, pairs, err := chainSecretPairs(class, w)
	if err != nil {
		return 0, err
	}
	lo, hi := 1e-3, 1e6
	if err := verifyPairs(specs, pairs, hi, eps, 1e-9, grid); err != nil {
		return 0, fmt.Errorf("core: even scale %v is not private: %w", hi, err)
	}
	for iter := 0; iter < 60; iter++ {
		mid := math.Sqrt(lo * hi)
		if verifyPairs(specs, pairs, mid, eps, 1e-9, grid) == nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
