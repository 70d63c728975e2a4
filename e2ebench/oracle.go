package main

import (
	"fmt"
	"math"

	"pufferfish/internal/bayes"
	"pufferfish/internal/release"
)

// oracle recomputes releases through release.Run over a score cache of
// its own. A release must match the server's σ, noise scale and
// histogram bit for bit: the noise is drawn from the request's seed, so
// any divergence in scoring, fitting or noise shows.
type oracle struct {
	cache *release.ScoreCache
	nets  map[*dataset]*bayes.Network
}

func newOracle() *oracle {
	return &oracle{cache: release.NewScoreCache(), nets: map[*dataset]*bayes.Network{}}
}

// config is the member's release configuration with the network
// parsed, as the server's request decoding produces it.
func (o *oracle) config(m *member) (release.Config, error) {
	cfg := m.config()
	if m.data.network != nil {
		nw, ok := o.nets[m.data]
		if !ok {
			var err error
			if nw, err = bayes.ParseJSON(m.data.network); err != nil {
				return cfg, err
			}
			o.nets[m.data] = nw
		}
		cfg.Network = nw
	}
	return cfg, nil
}

func (o *oracle) check(r *request, got []wireReport) error {
	for j := range r.members {
		m := &r.members[j]
		cfg, err := o.config(m)
		if err != nil {
			return err
		}
		cfg.Cache = o.cache
		want, err := release.Run(m.data.ints(), cfg)
		if err != nil {
			return fmt.Errorf("member %d: oracle release: %w", j, err)
		}
		if err := sameRelease(want, &got[j]); err != nil {
			return fmt.Errorf("member %d (%s): %w", j, m.class.name, err)
		}
	}
	return nil
}

// sameRelease compares a report against a decoded reply bit for bit.
func sameRelease(want *release.Report, got *wireReport) error {
	if !sameBits(want.Sigma, got.Sigma) || !sameBits(want.NoiseScale, got.NoiseScale) {
		return fmt.Errorf("σ/scale %v/%v, want %v/%v", got.Sigma, got.NoiseScale, want.Sigma, want.NoiseScale)
	}
	if len(want.Histogram) != len(got.Histogram) {
		return fmt.Errorf("%d histogram cells, want %d", len(got.Histogram), len(want.Histogram))
	}
	for i := range want.Histogram {
		if !sameBits(want.Histogram[i], got.Histogram[i]) {
			return fmt.Errorf("histogram cell %d = %v, want %v", i, got.Histogram[i], want.Histogram[i])
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
