package core

import (
	"fmt"
	"strconv"

	"pufferfish/internal/dist"
	"pufferfish/internal/markov"
)

// Substrate kind tags. The tag domain-separates fingerprints: a chain
// and a network that happened to serialize to identical canonical
// bytes can never share a ScoreCache entry.
const (
	SubstrateChain   = "chain"
	SubstrateNetwork = "network"
)

// Substrate is the correlation model underneath a Pufferfish
// instantiation (S, Q, Θ) for count queries over positions 1…Len():
// the secrets are all position values, the pairs all same-position
// value pairs with positive probability, and the scalar query is
// F(X) = Σ_pos w[X_pos] with integer per-value weights.
//
// It is the seam between the scoring pipeline and the model family:
// the Wasserstein sweep, the Kantorovich cell profiles, and the
// fingerprint-keyed ScoreCache all consume this interface, so a new
// correlation structure plugs into caching, accounting, and serving by
// implementing it. markov.Class chains (ClassSubstrate) and
// tree/polytree bayes.Network classes (NetworkSubstrate) are the two
// implementations.
type Substrate interface {
	// Kind is the substrate's domain-separation tag, one of the
	// Substrate* constants. SubstrateFingerprint mixes it into the
	// fingerprint before any canonical bytes.
	Kind() string
	// K is the per-position cardinality: values live in {0, …, K−1}
	// and the histogram query has K cells.
	K() int
	// Len is the number of positions (chain nodes, network nodes).
	Len() int
	// SecretPairs enumerates the admissible secret pairs in canonical
	// order (θ-major, then position, then value pair) — the order is
	// part of the contract: sweeps keep first maximizers, so it
	// determines which pair a diagnostic label names.
	SecretPairs() ([]SecretSpec, error)
	// CountDists returns the exact conditional distribution of
	// F(X) = Σ_pos w[X_pos] for every query: dists[i] is F's law given
	// X_Pos = Val under distribution Theta (an index into the
	// substrate's Θ), for queries[i]. Pos is 1-based; 0 means no
	// conditioning. One call serves a whole batch, so the work its
	// queries share is done once, and the rest fans over parallelism
	// workers (0 = every CPU, 1 = serial) with identical results at
	// every setting. The error, if any, is the first failing query's
	// in slice order; a zero-probability conditioning event is an
	// error.
	CountDists(w []int, queries []CountQuery, parallelism int) ([]dist.Discrete, error)
	// WriteFingerprint streams the substrate's canonical fingerprint
	// bytes — everything scores depend on besides (ε, options) — into
	// w. Implementations must not write the kind tag;
	// SubstrateFingerprint prepends it.
	WriteFingerprint(w FingerprintWriter)
}

// SecretSpec is one admissible secret pair of a substrate: under the
// Theta-th distribution, position Pos (1-based) takes value A or value
// B (A < B), both with positive marginal probability.
type SecretSpec struct {
	Theta, Pos, A, B int
}

// CountQuery names one conditional count distribution of a substrate:
// F(X) given X_Pos = Val under the Theta-th distribution (Pos 1-based;
// 0 means no conditioning).
type CountQuery struct {
	Theta, Pos, Val int
}

// secretPairs enumerates the admissible secret pairs of a substrate
// from its node marginals, margs[θ][pos−1][value], in the canonical
// order every substrate shares: θ-major, then position, then value
// pairs (a, b), a < b, both with positive probability. The first of
// two passes over the (cheap) admissibility checks counts, so the
// list is allocated exactly once.
func secretPairs(margs [][][]float64, k int) []SecretSpec {
	visit := func(emit func(SecretSpec)) {
		for ti, marg := range margs {
			for i, m := range marg {
				for a := 0; a < k; a++ {
					if m[a] <= 0 {
						continue
					}
					for b := a + 1; b < k; b++ {
						if m[b] > 0 {
							emit(SecretSpec{Theta: ti, Pos: i + 1, A: a, B: b})
						}
					}
				}
			}
		}
	}
	n := 0
	visit(func(SecretSpec) { n++ })
	specs := make([]SecretSpec, 0, n)
	visit(func(sp SecretSpec) { specs = append(specs, sp) })
	return specs
}

// label renders the pair's diagnostic label ("X3: 0 vs 1 @ θ2", θ
// 1-based) with a single allocation (fmt.Sprintf boxes every argument,
// which dominated the pair sweep's allocation count).
func (sp SecretSpec) label() string {
	var arr [40]byte
	b := arr[:0]
	b = append(b, 'X')
	b = strconv.AppendInt(b, int64(sp.Pos), 10)
	b = append(b, ": "...)
	b = strconv.AppendInt(b, int64(sp.A), 10)
	b = append(b, " vs "...)
	b = strconv.AppendInt(b, int64(sp.B), 10)
	b = append(b, " @ θ"...)
	b = strconv.AppendInt(b, int64(sp.Theta+1), 10)
	return string(b)
}

// CountInstance is the generic WassersteinInstance of a substrate: it
// makes Algorithm 1 (and the Kantorovich cell profiles) runnable on
// anything implementing Substrate, with the same enumeration order and
// labels as the historical chain-only path — scores through it are
// bit-identical to the pre-Substrate pipeline.
type CountInstance struct {
	Substrate Substrate
	// W are per-value integer weights; the indicator of a value makes
	// F that value's occupancy count.
	W []int
	// Parallelism bounds the worker count of the substrate's batched
	// conditional distributions: 0 uses every CPU, 1 runs strictly
	// serial. The pair list is identical (same order, same
	// distributions) at every setting.
	Parallelism int
}

// ConditionalPairs implements WassersteinInstance. Secret values with
// zero probability are skipped per Definition 2.1 (the substrate's
// SecretPairs contract). With k values, each (θ, position, value)
// conditional serves up to k−1 pairs; the distinct ones — the
// dominant cost — are computed once, in one batched CountDists call,
// and the pairs share them in spec order. The queries are listed in
// first-use order, so the first failing one is the one a pair-by-pair
// sweep would have met first.
func (c CountInstance) ConditionalPairs() ([]DistributionPair, error) {
	if len(c.W) != c.Substrate.K() {
		return nil, fmt.Errorf("core: weight vector has length %d, want %d", len(c.W), c.Substrate.K())
	}
	specs, err := c.Substrate.SecretPairs()
	if err != nil {
		return nil, err
	}
	var queries []CountQuery
	index := make(map[CountQuery]int)
	ref := make([]int, 2*len(specs)) // spec j's µ and ν, as query indices
	for j, sp := range specs {
		for h, val := range [2]int{sp.A, sp.B} {
			q := CountQuery{Theta: sp.Theta, Pos: sp.Pos, Val: val}
			i, ok := index[q]
			if !ok {
				i = len(queries)
				index[q] = i
				queries = append(queries, q)
			}
			ref[2*j+h] = i
		}
	}
	dists, err := c.Substrate.CountDists(c.W, queries, c.Parallelism)
	if err != nil {
		return nil, err
	}
	pairs := make([]DistributionPair, len(specs))
	for j, sp := range specs {
		pairs[j] = DistributionPair{Mu: dists[ref[2*j]], Nu: dists[ref[2*j+1]], Label: sp.label()}
	}
	return pairs, nil
}

// ClassSubstrate adapts a markov.Class to the Substrate interface —
// the historical chain pipeline expressed through the generic seam.
// Chains() is snapshotted at construction so grid classes do not
// rebuild their grid per conditional distribution.
type ClassSubstrate struct {
	class  markov.Class
	chains []markov.Chain
}

// NewClassSubstrate wraps a chain class as a Substrate.
func NewClassSubstrate(class markov.Class) *ClassSubstrate {
	return &ClassSubstrate{class: class, chains: class.Chains()}
}

// Kind implements Substrate.
func (s *ClassSubstrate) Kind() string { return SubstrateChain }

// K implements Substrate.
func (s *ClassSubstrate) K() int { return s.class.K() }

// Len implements Substrate: the chain length T.
func (s *ClassSubstrate) Len() int { return s.class.T() }

// Class returns the wrapped chain class.
func (s *ClassSubstrate) Class() markov.Class { return s.class }

// SecretPairs implements Substrate: all (θ, node, a, b) with both
// marginals positive, enumerated θ-major in Chains() order.
func (s *ClassSubstrate) SecretPairs() ([]SecretSpec, error) {
	margs := make([][][]float64, len(s.chains))
	for ti, theta := range s.chains {
		margs[ti] = theta.Marginals(s.class.T())
	}
	return secretPairs(margs, s.class.K()), nil
}

// CountDists implements Substrate by the chains' shared-prefix forward
// dynamic programs (markov.CountDists): per chain, one unconditioned
// prefix, and each conditional program run from its own position.
func (s *ClassSubstrate) CountDists(w []int, queries []CountQuery, parallelism int) ([]dist.Discrete, error) {
	mq := make([]markov.CountQuery, len(queries))
	for i, q := range queries {
		mq[i] = markov.CountQuery{Chain: q.Theta, Cond: q.Pos, State: q.Val}
	}
	return markov.CountDists(s.chains, s.class.T(), w, mq, parallelism)
}

// WriteFingerprint implements Substrate: the chain length T, the state
// count, the AllInitialDistributions flag, and every representative
// chain's initial distribution and transition matrix, in Chains()
// order (order matters: the scorer's first-maximizer tie-breaking is
// order dependent).
func (s *ClassSubstrate) WriteFingerprint(w FingerprintWriter) {
	w.Word(uint64(s.class.K()))
	w.Word(uint64(s.class.T()))
	if s.class.AllInitialDistributions() {
		w.Word(1)
	} else {
		w.Word(0)
	}
	w.Word(uint64(len(s.chains)))
	for _, c := range s.chains {
		writeChain(w, c)
	}
}
