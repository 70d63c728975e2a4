package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"pufferfish/internal/floats"
	"pufferfish/internal/markov"
	"pufferfish/internal/matrix"
	"pufferfish/internal/sched"
)

// eagerExactScore is ExactScore with every table built up front, as the
// scorer did before influence rows were built on demand: each θ builds
// min(ℓ, T−1) rows (T−1 under Appendix C.4) and all T marginals, and the
// stationary shortcut scores the middle node over all of them. It runs
// serially; the engine is bit-identical at any parallelism.
func eagerExactScore(class markov.Class, eps float64, opt ExactOptions) (ChainScore, error) {
	if err := validateChainClass(class, eps); err != nil {
		return ChainScore{}, err
	}
	T := class.T()
	ell := opt.MaxWidth
	if ell <= 0 {
		ell = autoWidth(class, eps, T, 1)
	}
	ell = min(ell, T)
	allInits := class.AllInitialDistributions()
	best := ChainScore{Sigma: math.Inf(-1), Ell: ell}
	for _, theta := range class.Chains() {
		if err := theta.Validate(); err != nil {
			return ChainScore{}, err
		}
		if s := eagerScoreTheta(theta, T, ell, eps, allInits, opt.ForceFullSweep); s.Sigma > best.Sigma {
			s.Ell = ell
			best = s
		}
	}
	return best, nil
}

func eagerScoreTheta(theta markov.Chain, T, ell int, eps float64, allInits, forceFull bool) ChainScore {
	maxPow := ell
	if allInits {
		maxPow = max(T-1, ell)
	}
	maxPow = min(maxPow, T-1)
	sc := newExactScorer(theta, T, theta.K(), maxPow, allInits, sched.New(1), newMatrixTables(theta.P))
	if !allInits && !forceFull {
		if pi, err := theta.Stationary(); err == nil && floats.EqSlices(pi, theta.Init, 1e-9) {
			mid := (T + 1) / 2
			sigma, quilt, infl := sc.nodeScore(mid, ell, eps)
			if quilt.A > 0 && quilt.B > 0 && mid-quilt.A >= 1 && mid+quilt.B <= T {
				return ChainScore{Sigma: sigma, Node: mid, Quilt: quilt, Influence: infl}
			}
		}
	}
	best := ChainScore{Sigma: math.Inf(-1)}
	for i := 1; i <= T; i++ {
		if sigma, quilt, infl := sc.nodeScore(i, ell, eps); sigma > best.Sigma {
			best = ChainScore{Sigma: sigma, Node: i, Quilt: quilt, Influence: infl}
		}
	}
	return best
}

// sameScoreBits reports whether two scores agree with σ and the
// influence compared as IEEE bit patterns.
func sameScoreBits(a, b ChainScore) bool {
	return math.Float64bits(a.Sigma) == math.Float64bits(b.Sigma) &&
		math.Float64bits(a.Influence) == math.Float64bits(b.Influence) &&
		a.Node == b.Node && a.Quilt == b.Quilt && a.Ell == b.Ell
}

// randomDiffChain draws a k-state chain that stays put with probability
// 0.5–0.97 and spreads the rest over the other states, a fraction
// zeroFrac of them structurally zero. x → x+1 is always possible, so
// the chain is irreducible and aperiodic. It starts from its stationary
// distribution, or else from a random one with zeros.
func randomDiffChain(t *testing.T, rng *rand.Rand, k int, zeroFrac float64, stationary bool) markov.Chain {
	t.Helper()
	rows := make([][]float64, k)
	for x := range rows {
		row := make([]float64, k)
		off := 0.0
		for y := range row {
			if y != x && (y == (x+1)%k || rng.Float64() >= zeroFrac) {
				row[y] = 0.05 + rng.Float64()
				off += row[y]
			}
		}
		stay := 0.5 + 0.47*rng.Float64()
		for y := range row {
			row[y] *= (1 - stay) / off
		}
		row[x] = stay
		rows[x] = row
	}
	init := make([]float64, k)
	sum := 0.0
	for x := range init {
		if x == 0 || rng.Float64() >= zeroFrac {
			init[x] = rng.Float64() + 0.01
			sum += init[x]
		}
	}
	for x := range init {
		init[x] /= sum
	}
	c, err := markov.NewFromRows(init, rows)
	if err != nil {
		t.Fatal(err)
	}
	if stationary {
		if c, err = c.StationaryChain(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

type diffCase struct {
	name  string
	class markov.Class
	eps   float64
	opt   ExactOptions
}

// diffCases draws the randomized differential cases: k from 2 to 51, T
// from 1 to 600, stationary and non-stationary θ, one to three θ per
// class, structural zeros, automatic and fixed ℓ, parallelism 1, 0 and
// 3, plus fresh-shaped k=51 models whose active quilts read past the
// first growth round.
func diffCases(t *testing.T) []diffCase {
	rng := rand.New(rand.NewPCG(91, 92))
	ks := []int{2, 2, 3, 3, 4, 5, 6, 8, 12, 20, 51}
	pars := []int{1, 0, 3}
	epss := []float64{0.3, 0.5, 1, 2, 4}
	var cases []diffCase
	for n := 0; n < 120; n++ {
		k := ks[rng.IntN(len(ks))]
		T := 1 + rng.IntN(600)
		switch {
		case n < 6:
			T = 1 + n // the shortest chains: no rows, one row, …
		case k > 8:
			T = 1 + rng.IntN(100) // keeps the k² full sweeps short
		}
		stationary := rng.IntN(4) != 0
		if !stationary {
			T = 1 + (T-1)/2 // every node is swept
		}
		nTheta := 1 + rng.IntN(3)
		zeroFrac := []float64{0, 0.3, 0.7}[rng.IntN(3)]
		chains := make([]markov.Chain, nTheta)
		for i := range chains {
			chains[i] = randomDiffChain(t, rng, k, zeroFrac, stationary)
		}
		class, err := markov.NewFinite(chains, T)
		if err != nil {
			t.Fatal(err)
		}
		opt := ExactOptions{Parallelism: pars[rng.IntN(len(pars))]}
		if rng.IntN(3) == 0 {
			opt.MaxWidth = 1 + rng.IntN(T)
		}
		cases = append(cases, diffCase{
			name:  fmt.Sprintf("#%d k=%d T=%d θ=%d stationary=%v zeros=%g", n, k, T, nTheta, stationary, zeroFrac),
			class: class, eps: epss[rng.IntN(len(epss))], opt: opt,
		})
	}
	for n, T := range []int{500, 500, 120, 600} {
		cases = append(cases, diffCase{
			name:  fmt.Sprintf("fresh k51 #%d T=%d", n, T),
			class: freshK51Class(t, uint64(81+n), T), eps: epss[n], opt: ExactOptions{Parallelism: pars[n%3]},
		})
	}
	return cases
}

// TestOnDemandRowsMatchEager: scores built from on-demand rows and a
// half-length marginal prefix are bit-identical to the eager tables',
// cold, through a ScoreCache warmed at a shorter length or another ε,
// and through ScoreBatch.
func TestOnDemandRowsMatchEager(t *testing.T) {
	cases := diffCases(t)
	wants := make([]ChainScore, len(cases))
	for i, c := range cases {
		want, err := eagerExactScore(c.class, c.eps, c.opt)
		if err != nil {
			t.Fatalf("%s: eager: %v", c.name, err)
		}
		wants[i] = want
		got, err := ExactScore(c.class, c.eps, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sameScoreBits(got, want) {
			t.Errorf("%s ε=%g %+v: cold\n got  %+v\n want %+v", c.name, c.eps, c.opt, got, want)
		}
		// A cache warmed at a shorter length holds fewer marginals and
		// possibly other rows; one warmed at another ε holds the rows
		// that ε read.
		cache := NewScoreCache()
		if i%2 == 0 {
			_, err = cache.ExactScore(WithLength(c.class, 1+c.class.T()/3), c.eps, c.opt)
		} else {
			_, err = cache.ExactScore(c.class, 2*c.eps, c.opt)
		}
		if err != nil {
			t.Fatalf("%s: warming: %v", c.name, err)
		}
		got, err = cache.ExactScore(c.class, c.eps, c.opt)
		if err != nil {
			t.Fatalf("%s: warm: %v", c.name, err)
		}
		if !sameScoreBits(got, want) {
			t.Errorf("%s ε=%g %+v: warm cache\n got  %+v\n want %+v", c.name, c.eps, c.opt, got, want)
		}
	}
	// ScoreBatch over each (ε, options) group, sharing one table set.
	type groupKey struct {
		eps float64
		opt ExactOptions
	}
	groups := map[groupKey][]int{}
	var order []groupKey
	for i, c := range cases {
		g := groupKey{c.eps, c.opt}
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], i)
	}
	for _, g := range order {
		var classes []markov.Class
		for _, i := range groups[g] {
			classes = append(classes, cases[i].class)
		}
		got, err := ScoreBatch(nil, classes, g.eps, g.opt)
		if err != nil {
			t.Fatal(err)
		}
		for j, i := range groups[g] {
			if !sameScoreBits(got[j], wants[i]) {
				t.Errorf("%s ε=%g %+v: ScoreBatch\n got  %+v\n want %+v", cases[i].name, g.eps, g.opt, got[j], wants[i])
			}
		}
	}
}

// TestTableStatsDuringBuild: TableStats answers while a row build holds
// an influence cache's lock — it reads each cache's published row
// count, so it neither waits for the build nor blocks other scores'
// table lookups behind the set mutex.
func TestTableStatsDuringBuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(93, 94))
	const k, n = 160, 100
	m := matrix.NewDense(k, k)
	for x := 0; x < k; x++ {
		sum := 0.0
		for y := 0; y < k; y++ {
			v := 0.05 + rng.Float64()
			m.Set(x, y, v)
			sum += v
		}
		for y := 0; y < k; y++ {
			m.Set(x, y, m.At(x, y)/sum)
		}
	}
	cache := NewScoreCache()
	tab := cache.tables.tables(m)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tab.ic.Grow(n, sched.New(1))
	}()
	// Grow builds the powers first, then takes the cache's lock for the
	// row builds, which take far longer than this wait.
	for tab.pc.Len() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	got := make(chan TableCacheStats, 1)
	go func() { got <- cache.TableStats() }()
	select {
	case st := <-got:
		if st.Matrices != 1 || st.Powers != 0 {
			t.Errorf("TableStats mid-build = %+v, want 1 matrix and no published rows", st)
		}
	case <-done:
		t.Fatal("TableStats waited for the row build to finish")
	}
	<-done
	if st := cache.TableStats(); st.Powers != n {
		t.Errorf("TableStats after the build = %+v, want %d rows", st, n)
	}
}
