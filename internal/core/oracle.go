package core

import (
	"pufferfish/internal/markov"
)

// ChainCountInstance is a ready-made WassersteinInstance for the
// Section 4.1 chain instantiation with the scalar query
// F(X) = Σ_t W[X_t] (integer per-state weights): the secrets are all
// node values, the pairs all same-node value pairs, and the
// conditional distributions of F are computed exactly by dynamic
// programming.
//
// It makes Algorithm 1 runnable on any (small) chain class and powers
// the Theorem 3.3 comparison against group differential privacy. It is
// the chain-shaped view of the generic CountInstance: the pair list is
// bit-identical to CountInstance over NewClassSubstrate(Class).
type ChainCountInstance struct {
	Class markov.Class
	// W are per-state integer weights; the indicator of a state makes
	// F that state's occupancy count.
	W []int
	// Parallelism bounds the worker count of the batched conditional
	// DPs: 0 uses every CPU, 1 runs strictly serial. The pair list is
	// identical (same order, same distributions) at every setting.
	Parallelism int
}

// ConditionalPairs implements WassersteinInstance by delegating to the
// generic substrate path. Secret values with zero probability under a
// θ are skipped per Definition 2.1.
func (c ChainCountInstance) ConditionalPairs() ([]DistributionPair, error) {
	return CountInstance{
		Substrate:   NewClassSubstrate(c.Class),
		W:           c.W,
		Parallelism: c.Parallelism,
	}.ConditionalPairs()
}
