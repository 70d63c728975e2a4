package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"pufferfish/internal/floats"
	"pufferfish/internal/markov"
	"pufferfish/internal/matrix"
	"pufferfish/internal/query"
	"pufferfish/internal/sched"
)

// ExactOptions tunes Algorithm 3 (MQMExact).
type ExactOptions struct {
	// MaxWidth is the quilt-size limit ℓ: only quilts with
	// card(X_N) ≤ ℓ are searched (plus the trivial quilt). Zero picks
	// ℓ automatically — the full chain when T is small, otherwise the
	// optimal MQMApprox quilt width, which is the paper's choice for
	// the real-data experiments (Section 5.3).
	MaxWidth int
	// ForceFullSweep disables the stationary-initial-distribution
	// shortcut (Section 4.4.1's observation that the max-influence is
	// then independent of i) even when it applies. Used by the
	// ablation benchmarks and correctness tests.
	ForceFullSweep bool
	// Parallelism bounds the worker count of the scoring sweeps: 0
	// uses every CPU, 1 runs strictly serial, n > 1 uses up to n
	// workers. The score is bit-for-bit identical at every setting —
	// the engine only performs order-preserving max reductions.
	Parallelism int
}

// fullSweepLimit is the largest T for which the automatic ℓ falls back
// to a full-width search when the approximate width is unavailable.
const fullSweepLimit = 4096

// ExactScore computes σ_max for Algorithm 3: the exact max-influence
// of every Lemma 4.6 quilt with card(X_N) ≤ ℓ is evaluated through the
// decomposition (5), using dynamic programming over matrix powers (the
// Section 4.4.1 speed-ups), the Appendix C.4 closed form when the
// class pairs transition matrices with every initial distribution, and
// the stationary-initial shortcut when the class is started from
// stationarity.
func ExactScore(class markov.Class, eps float64, opt ExactOptions) (ChainScore, error) {
	return exactScoreWith(class, eps, opt, sched.New(opt.Parallelism), newPowerCacheSet())
}

// exactScoreWith is ExactScore with an explicit worker pool and shared
// power-cache set, so ScoreBatch can schedule many classes through one
// pool invocation and share power tables across θ with equal
// transition matrices. ExactScore itself passes a fresh set, which
// already deduplicates power tables across the θ of one class (e.g.
// initial-distribution grids over a common matrix).
func exactScoreWith(class markov.Class, eps float64, opt ExactOptions, pool sched.Pool, pcs *powerCacheSet) (ChainScore, error) {
	if err := validateChainClass(class, eps); err != nil {
		return ChainScore{}, err
	}
	T := class.T()
	ell := opt.MaxWidth
	if ell <= 0 {
		ell = autoWidth(class, eps, T, pool.Workers())
	}
	if ell > T {
		ell = T
	}
	// Per-θ scores are independent; fan them across the pool and merge
	// in class order (strict > keeps the first maximizer, exactly as
	// the serial loop would). Split keeps outer×inner concurrency
	// within the requested worker bound: many-θ classes parallelize
	// across θ, singleton classes across the inner sweeps.
	chains := class.Chains()
	// Fail fast on an invalid chain before paying for any sweep — the
	// parallel fan below runs every θ to completion regardless of
	// errors elsewhere.
	for _, theta := range chains {
		if err := theta.Validate(); err != nil {
			return ChainScore{}, err
		}
	}
	outer, inner := pool.Split(len(chains))
	allInits := class.AllInitialDistributions()
	scores := make([]ChainScore, len(chains))
	errs := make([]error, len(chains))
	outer.ForEach(len(chains), func(ci int) {
		scores[ci], errs[ci] = exactScoreTheta(chains[ci], T, ell, eps, allInits, opt.ForceFullSweep, inner, pcs)
	})
	best := ChainScore{Sigma: math.Inf(-1), Ell: ell}
	for ci := range chains {
		if errs[ci] != nil {
			return ChainScore{}, errs[ci]
		}
		if sc := scores[ci]; sc.Sigma > best.Sigma {
			sc.Ell = ell
			best = sc
		}
	}
	return best, nil
}

// autoWidth picks ℓ: the active MQMApprox quilt width when the class
// supports the closed-form bounds, otherwise the full chain (bounded
// by fullSweepLimit to keep the search honest about its cost).
func autoWidth(class markov.Class, eps float64, T, parallelism int) int {
	if approx, err := ApproxScore(class, eps, ApproxOptions{Parallelism: parallelism}); err == nil && approx.Quilt.A > 0 && approx.Quilt.B > 0 {
		return approx.Quilt.A + approx.Quilt.B
	}
	if T <= fullSweepLimit {
		return T
	}
	return fullSweepLimit
}

// exactScoreTheta computes max_i min_quilt σ for a single θ.
func exactScoreTheta(theta markov.Chain, T, ell int, eps float64, allInits, forceFull bool, pool sched.Pool, pcs *powerCacheSet) (ChainScore, error) {
	if err := theta.Validate(); err != nil {
		return ChainScore{}, err
	}
	k := theta.K()

	// Stationary shortcut applies when every node has the same
	// marginal (init = stationary) and we are not forced to sweep.
	stationary := false
	if !allInits && !forceFull {
		if pi, err := theta.Stationary(); err == nil && floats.EqSlices(pi, theta.Init, 1e-9) {
			stationary = true
		}
	}

	// Backward tables are needed up to i−1 for the Appendix C.4 closed
	// form; forward/backward up to ℓ otherwise.
	maxPow := ell
	if allInits {
		maxPow = T - 1
		if maxPow < ell {
			maxPow = ell
		}
	}
	if maxPow > T-1 {
		maxPow = T - 1
	}
	// One table-set lookup per θ: the shortcut and the full sweep share
	// the matrix's tables.
	tab := pcs.tables(theta.P)
	if stationary {
		score, ok := stationaryShortcut(tab, theta, T, maxPow, ell, eps, pool)
		if ok {
			return score, nil
		}
		// Fall through to the full sweep when the middle node's active
		// quilt is not an interior two-sided quilt.
	}
	sc := newExactScorer(theta, T, k, maxPow, allInits, pool, tab)

	// The per-node scores only read the scorer's tables, so the sweep
	// fans across contiguous node chunks; the chunk-ordered first-max
	// reduction reproduces the serial result exactly.
	best := sched.ReduceChunks(pool, T, ChainScore{Sigma: math.Inf(-1)},
		func(start, end int) ChainScore {
			local := ChainScore{Sigma: math.Inf(-1)}
			for i := start + 1; i <= end; i++ { // nodes are 1-based
				sigma, quilt, infl := sc.nodeScore(i, ell, eps)
				if sigma > local.Sigma {
					local = ChainScore{Sigma: sigma, Node: i, Quilt: quilt, Influence: infl}
				}
			}
			return local
		},
		maxChainScore)
	return best, nil
}

// maxChainScore is the engine's first-wins merge: strictly greater σ
// replaces the accumulator, ties keep the earlier (lower-node) score.
func maxChainScore(acc, v ChainScore) ChainScore {
	if v.Sigma > acc.Sigma {
		return v
	}
	return acc
}

// exactScorer holds the per-θ dynamic-programming tables of
// Section 4.4.1: fwd[j][x*k+x'] = max_y log P^j(x,y)/P^j(x',y) and
// bwd[j][x*k+x'] = max_y log P^j(y,x)/P^j(y,x'), plus node marginals.
// The tables are views into the persistent per-matrix
// matrix.InfluenceCache, which evaluates them in the log domain
// (log p − log q instead of log(p/q)) from an element-wise log table of
// each power — O(k²) transcendentals per power instead of O(k³).
//
// A scorer may hold fewer rows than ℓ and fewer marginals than T: the
// node sweep only reads rows it holds (a quilt reading row r, the
// r-th power, has card ≥ r and is skipped past len(fwd)), and
// stationaryShortcut only reads the middle node's marginal. The full
// node sweep and the Appendix C.4 path hold every row up to maxPow and
// every marginal (newExactScorer).
//
// Error bound for the log-domain kernel: for finite entries both
// evaluations round the same real number log(p/q) with |p, q| > 0, and
//
//	|fl(fl(log p) − fl(log q)) − log(p/q)| ≤ u·(1 + |log p| + |log q|) + O(u²)
//
// with u = 2⁻⁵³ unit roundoff (one rounding per log, one per subtract),
// while the direct kernel satisfies |fl(log(fl(p/q))) − log(p/q)| ≤
// u·(1 + |log(p/q)|) + O(u²). Both are within B = 2u·(1 + 2·L) of the
// exact value, where L = max |log| of any positive matrix entry (or
// marginal), so the two kernels differ by at most 2B per table entry.
// An influence is a max over pairs of a sum of at most three table
// entries (t1 + bwd + fwd), the max is 1-Lipschitz in sup-norm, and
// ±Inf entries agree exactly by construction, hence
//
//	|influence_new − influence_old| ≤ 6B = 12u·(1 + 2L),
//
// a few ulps of the stored logs. The kernel-accuracy tests
// (mqmexact_kernel_test.go) pin this margin on every substrate and
// additionally assert the released influence never drops below the
// direct kernel's value by more than the margin, so the noise scale
// stays conservative up to provable rounding error.
type exactScorer struct {
	T, k           int
	allInits       bool
	fwd, bwd       [][]float64 // index j−1, views into the InfluenceCache
	fwdArg, bwdArg []int32     // per-row off-diagonal argmax (prune probes)
	marg           [][]float64 // node marginals (1-based node i → marg[i−1])
}

// newExactScorer returns the eager scorer the full node sweep runs on:
// influence rows up to maxPow and, unless allInits, all T marginals.
// Derived tables come from the shared per-matrix set, so θ with equal
// transition matrices (within a class, across a batch, or across
// releases through a persistent ScoreCache) build each power row once;
// scoring T+1 after T only computes the new rows.
func newExactScorer(theta markov.Chain, T, k, maxPow int, allInits bool, pool sched.Pool, tab *matrixTables) *exactScorer {
	sc := &exactScorer{T: T, k: k, allInits: allInits}
	sc.useRows(tab.ic, maxPow, pool)
	if !allInits {
		sc.marg = tab.marginals(theta, T)
	}
	return sc
}

// useRows points the scorer at the first n influence rows, building
// the missing ones. The power recurrence itself is sequential; the
// per-power row builds fan across the pool.
func (sc *exactScorer) useRows(ic *matrix.InfluenceCache, n int, pool sched.Pool) {
	ic.Grow(n, pool)
	sc.fwd, sc.bwd, sc.fwdArg, sc.bwdArg = ic.Tables(n)
}

// logRatio returns log(p/q) with the conventions of max-influence
// computation: +Inf when p > 0 = q, −Inf when p = 0 (so it never wins
// a max unless everything is −Inf, which cannot happen for stochastic
// rows).
func logRatio(p, q float64) float64 {
	switch {
	case p <= 0:
		return math.Inf(-1)
	case q <= 0:
		return math.Inf(1)
	default:
		return math.Log(p / q)
	}
}

// term1 returns t1(x, x') = log P(X_i = x')/P(X_i = x) for node i, or
// the Appendix C.4 supremum over initial distributions
// max_y log P^{i−1}(y,x')/P^{i−1}(y,x). The boolean reports whether
// the (x, x') secret pair is admissible (both secrets have positive
// probability; Definition 2.1 skips the rest).
func (sc *exactScorer) term1(i, x, xp int) (float64, bool) {
	if sc.allInits {
		if i == 1 {
			// The initial distribution itself is the marginal; the
			// supremum of log q(x')/q(x) over the open simplex is +Inf.
			return math.Inf(1), true
		}
		return sc.bwd[i-2][xp*sc.k+x], true
	}
	m := sc.marg[i-1]
	if m[x] <= 0 || m[xp] <= 0 {
		return 0, false
	}
	return math.Log(m[xp] / m[x]), true
}

// influence returns the exact max-influence e_{θ}(X_Q | X_i) of quilt
// (a, b) on node i via decomposition (5). ok=false means node i has at
// most one admissible value, hence nothing to protect.
//
// This is the reference evaluation; nodeScore runs the equivalent fused
// kernel (fillT1 + maxSum over contiguous slabs) instead. The only
// arithmetic difference is term1's log(m[x']/m[x]) versus the fused
// path's log m[x'] − log m[x], covered by the error bound documented on
// exactScorer. Tests use this form to cross-check the fused sweep.
func (sc *exactScorer) influence(i int, q ChainQuilt, eps float64) (infl float64, ok bool) {
	if q.Trivial() {
		// Still require at least two admissible secrets at node i.
		if !sc.hasPair(i) {
			return 0, false
		}
		return 0, true
	}
	k := sc.k
	worst := math.Inf(-1)
	any := false
	for x := 0; x < k; x++ {
		for xp := 0; xp < k; xp++ {
			if x == xp {
				continue
			}
			t1, admissible := sc.term1(i, x, xp)
			if !admissible {
				continue
			}
			any = true
			// Decomposition (5): the marginal ratio t1 enters through
			// the Bayes reversal of the left arm, so it appears only
			// when the quilt has a left endpoint. A right-only quilt
			// {X_{i+b}} is a pure forward kernel ratio.
			var v float64
			if q.A > 0 {
				v += t1 + sc.bwd[q.A-1][x*k+xp]
			}
			if q.B > 0 {
				v += sc.fwd[q.B-1][x*k+xp]
			}
			if v > worst {
				worst = v
			}
		}
	}
	if !any {
		return 0, false
	}
	if worst < 0 {
		// Influence is a sup of log-ratios over pairs in both orders;
		// it cannot be negative. Numerical noise only.
		worst = 0
	}
	return worst, true
}

// hasPair reports whether node i has two values of positive
// probability (i.e. at least one admissible secret pair).
func (sc *exactScorer) hasPair(i int) bool {
	if sc.allInits {
		return true
	}
	count := 0
	for _, p := range sc.marg[i-1] {
		if p > 0 {
			count++
		}
	}
	return count >= 2
}

// fillT1 builds the per-node pair slabs the fused influence kernel
// consumes: t1[x*k+x'] is the marginal log-ratio term of decomposition
// (5) — log m_i(x') − log m_i(x), or the Appendix C.4 backward
// supremum when the class pairs all initial distributions — and
// adm[x*k+x'] is 0 for admissible ordered pairs. Diagonal and
// inadmissible entries are −Inf in both, so a fused max-add sweep skips
// them for free (−Inf and NaN sums never win a `>` fold). The −Inf
// must be explicit: computing log m(x') − log m(x) at an inadmissible
// pair with m(x) = 0 < m(x') would manufacture a spurious +Inf.
func (sc *exactScorer) fillT1(i int, t1, adm []float64) {
	k := sc.k
	ninf := math.Inf(-1)
	if sc.allInits {
		for p := range adm {
			adm[p] = 0
		}
		for x := 0; x < k; x++ {
			adm[x*k+x] = ninf
		}
		if i == 1 {
			// The initial distribution itself is the marginal; the
			// supremum of log q(x')/q(x) over the open simplex is +Inf.
			// No left quilt exists at i = 1 (a ≤ i−1 = 0), so t1 is
			// never read; fill it consistently anyway.
			for p := range t1 {
				t1[p] = math.Inf(1)
			}
			for x := 0; x < k; x++ {
				t1[x*k+x] = ninf
			}
			return
		}
		row := sc.bwd[i-2] // t1(x, x') = bwd^{i−1}[x'*k+x] (transposed)
		for x := 0; x < k; x++ {
			trow := t1[x*k : (x+1)*k]
			for xp := range trow {
				trow[xp] = row[xp*k+x]
			}
			trow[x] = ninf
		}
		return
	}
	m := sc.marg[i-1]
	lm := t1[:k] // reuse the slab head as log-marginal scratch; t1 is filled below
	for x, mx := range m {
		if mx > 0 {
			lm[x] = math.Log(mx)
		} else {
			lm[x] = math.NaN()
		}
	}
	// Fill back-to-front so lm (aliased to t1[:k]) is consumed before
	// row 0 overwrites it; row x only reads lm, never earlier t1 rows.
	for x := k - 1; x >= 0; x-- {
		lx := lm[x]
		trow := t1[x*k : (x+1)*k]
		arow := adm[x*k : (x+1)*k]
		if math.IsNaN(lx) {
			for p := range trow {
				trow[p] = ninf
				arow[p] = ninf
			}
			continue
		}
		for xp := range trow {
			lxp := lm[xp]
			if math.IsNaN(lxp) {
				trow[xp] = ninf
				arow[xp] = ninf
				continue
			}
			trow[xp] = lxp - lx
			arow[xp] = 0
		}
		trow[x] = ninf
		arow[x] = ninf
	}
}

// maxSum2 returns max_p a[p]+b[p] with a `>` fold, so NaN and −Inf
// entries (inadmissible pairs, zero-probability transitions) never win.
func maxSum2(a, b []float64) float64 {
	best := math.Inf(-1)
	b = b[:len(a)]
	for p, ap := range a {
		if v := ap + b[p]; v > best {
			best = v
		}
	}
	return best
}

// maxSum3 is maxSum2 over three slabs: the full decomposition-(5) sum
// t1 + bwd + fwd, folded left-to-right exactly like the reference
// influence loop.
func maxSum3(a, b, c []float64) float64 {
	best := math.Inf(-1)
	b = b[:len(a)]
	c = c[:len(a)]
	for p, ap := range a {
		if v := ap + b[p] + c[p]; v > best {
			best = v
		}
	}
	return best
}

// prunable reports whether every quilt with the given card and
// influence ≥ lb scores at least bestSigma, so the full pair sweep can
// be skipped without changing the selected minimizer: the quilt score
// card/(ε − infl) is increasing in infl (and +Inf from ε up), influence
// is clamped at ≥ 0, and the incumbent wins ties. lb may be −Inf (no
// information — prunes on card alone) or NaN (never prunes).
func prunable(card int, lb, eps, bestSigma float64) bool {
	if lb >= eps {
		return true // score is +Inf regardless of the exact influence
	}
	if lb < 0 {
		lb = 0
	}
	return float64(card)/(eps-lb) >= bestSigma
}

// fold is a NaN-safe max accumulator for the O(1) influence
// lower-bound probes.
func fold(best, v float64) float64 {
	if v > best {
		return v
	}
	return best
}

// pairBufPool recycles the per-node t1/adm slabs across nodeScore
// calls (the sweep runs T of them, concurrently across chunks).
var pairBufPool = sync.Pool{New: func() any { return new([]float64) }}

func getPairBuf(n int) []float64 {
	bp := pairBufPool.Get().(*[]float64)
	if cap(*bp) < n {
		*bp = make([]float64, n)
	}
	return (*bp)[:n]
}

func putPairBuf(b []float64) {
	pairBufPool.Put(&b)
}

// nodeScore returns σ_i = min over the Lemma 4.6 quilts with
// card(X_N) ≤ ℓ (plus trivial) of the quilt score, with the active
// quilt and its influence. It is the fused, pruned equivalent of
// looping sc.influence over every quilt: per candidate it first tries
// two O(1) lower-bound probes (the sum at each table row's argmax pair)
// and the card/ε floor, and only runs the O(k²) max-add sweep for
// quilts that can still beat the incumbent. Pruned quilts provably
// score ≥ the running minimum, and ties keep the earlier quilt, so the
// selected (σ, quilt, influence) triple is identical to the exhaustive
// loop's.
func (sc *exactScorer) nodeScore(i, ell int, eps float64) (float64, ChainQuilt, float64) {
	T := sc.T
	if !sc.hasPair(i) {
		return 0, ChainQuilt{}, 0
	}
	if sc.k < 2 {
		// A single-state space has no ordered pair to protect: only the
		// trivial quilt has a defined influence (zero).
		return quiltScore(T, 0, eps), ChainQuilt{}, 0
	}
	k := sc.k
	kk := k * k
	buf := getPairBuf(2 * kk)
	defer putPairBuf(buf)
	t1, adm := buf[:kk], buf[kk:]
	sc.fillT1(i, t1, adm)

	// The trivial quilt (influence 0, score T/ε) seeds the minimum.
	bestSigma := quiltScore(T, 0, eps)
	bestQuilt := ChainQuilt{}
	bestInfl := 0.0
	// a and b are clamped to the rows held. With all min(ℓ, T−1) rows
	// that drops nothing: a left-only quilt needs card = T−i+a ≤ ℓ (so
	// a ≤ ℓ − (T−i) ≤ ℓ) and a two-sided one a+b−1 ≤ ℓ, so no quilt with
	// a longer arm can fit. With fewer rows, the quilts dropped are the
	// ones stationaryShortcut's stop rule proves cannot win.
	for a := 1; a <= i-1 && a <= len(sc.bwd); a++ {
		// Both remaining card floors grow with a: once neither the
		// left-only card (T−i+a) nor the smallest two-sided card (a, at
		// b = 1) can beat the incumbent, no larger a can either.
		if float64(a)/eps >= bestSigma && float64(T-i+a)/eps >= bestSigma {
			break
		}
		bRow := sc.bwd[a-1]
		ba := int(sc.bwdArg[a-1])
		if card := T - i + a; card <= ell { // left-only quilt {X_{i−a}}
			lb := fold(math.Inf(-1), t1[ba]+bRow[ba])
			if !prunable(card, lb, eps, bestSigma) {
				v := maxSum2(t1, bRow)
				if v < 0 {
					v = 0
				}
				if s := quiltScore(card, v, eps); s < bestSigma {
					bestSigma, bestQuilt, bestInfl = s, ChainQuilt{A: a}, v
				}
			}
		}
		for b := 1; b <= T-i && b <= len(sc.fwd) && a+b-1 <= ell; b++ {
			card := a + b - 1
			if float64(card)/eps >= bestSigma {
				break // card grows with b
			}
			fRow := sc.fwd[b-1]
			fa := int(sc.fwdArg[b-1])
			lb := fold(math.Inf(-1), t1[ba]+bRow[ba]+fRow[ba])
			lb = fold(lb, t1[fa]+bRow[fa]+fRow[fa])
			if prunable(card, lb, eps, bestSigma) {
				continue
			}
			v := maxSum3(t1, bRow, fRow)
			if v < 0 {
				v = 0
			}
			if s := quiltScore(card, v, eps); s < bestSigma {
				bestSigma, bestQuilt, bestInfl = s, ChainQuilt{A: a, B: b}, v
			}
		}
		if T-i+a > ell && a+1-1 > ell {
			break // neither one-sided nor two-sided can fit anymore
		}
	}
	for b := 1; b <= T-i && b <= len(sc.fwd) && i+b-1 <= ell; b++ {
		card := i + b - 1
		if float64(card)/eps >= bestSigma {
			break // card grows with b
		}
		fRow := sc.fwd[b-1]
		fa := int(sc.fwdArg[b-1])
		lb := fold(math.Inf(-1), adm[fa]+fRow[fa])
		if prunable(card, lb, eps, bestSigma) {
			continue
		}
		// Right-only quilt {X_{i+b}}: a pure forward kernel ratio over
		// admissible pairs (adm is 0 there, −Inf elsewhere).
		v := maxSum2(adm, fRow)
		if v < 0 {
			v = 0
		}
		if s := quiltScore(card, v, eps); s < bestSigma {
			bestSigma, bestQuilt, bestInfl = s, ChainQuilt{B: b}, v
		}
	}
	return bestSigma, bestQuilt, bestInfl
}

// shortcutRows is the row count stationaryShortcut first scores the
// middle node with (or the rows already resident, if more).
const shortcutRows = 16

// stationaryShortcut exploits the Section 4.4.1 observation: with the
// initial distribution stationary, the max-influence of a two-sided
// quilt depends only on (a, b), so the Lemma C.4 argument gives
// σ_max = σ_{⌈T/2⌉} whenever the middle node's active quilt is an
// interior two-sided quilt. Returns ok=false when that condition
// fails and a full sweep is required.
//
// It builds only what the middle node reads: marginals up to mid, and
// influence rows on demand. Any quilt that reads row r has card ≥ r, so
// its computed score card/(ε − infl) is ≥ r/ε (infl ≥ 0, and rounding
// is monotone). Scoring over R rows gives σ_R ≥ σ*, the score over all
// maxPow rows; if σ_R < (R+1)/ε, no skipped quilt can win or tie, so
// σ_R, its quilt and influence are final. Otherwise one more round over
// ⌈ε·σ_R⌉+1 rows is: every quilt it skips has card ≥ ⌈ε·σ_R⌉+2, hence
// scores above σ_R ≥ σ*.
func stationaryShortcut(tab *matrixTables, theta markov.Chain, T, maxPow, ell int, eps float64, pool sched.Pool) (ChainScore, bool) {
	mid := (T + 1) / 2
	sc := &exactScorer{T: T, k: theta.K(), marg: tab.marginals(theta, mid)}
	rows := min(maxPow, max(shortcutRows, tab.ic.Len()))
	sc.useRows(tab.ic, rows, pool)
	sigma, quilt, infl := sc.nodeScore(mid, ell, eps)
	if rows < maxPow && sigma >= float64(rows+1)/eps {
		rows = maxPow
		if r := math.Ceil(eps*sigma) + 1; r < float64(maxPow) {
			rows = int(r)
		}
		sc.useRows(tab.ic, rows, pool)
		sigma, quilt, infl = sc.nodeScore(mid, ell, eps)
	}
	if quilt.A > 0 && quilt.B > 0 && mid-quilt.A >= 1 && mid+quilt.B <= T {
		return ChainScore{Sigma: sigma, Node: mid, Quilt: quilt, Influence: infl}, true
	}
	return ChainScore{}, false
}

// MQMExact runs Algorithm 3 end to end: computes σ_max with ExactScore
// and releases the query with Laplace noise of scale Lipschitz·σ_max.
func MQMExact(data []int, q query.Query, class markov.Class, eps float64, opt ExactOptions, rng *rand.Rand) (Release, ChainScore, error) {
	score, err := ExactScore(class, eps, opt)
	if err != nil {
		return Release{}, ChainScore{}, err
	}
	if math.IsInf(score.Sigma, 1) {
		return Release{}, score, fmt.Errorf("core: MQMExact inapplicable: every quilt has influence ≥ ε")
	}
	rel, err := releaseWithScore(data, q, score, eps, "MQMExact", rng)
	if err != nil {
		return Release{}, ChainScore{}, err
	}
	return rel, score, nil
}
