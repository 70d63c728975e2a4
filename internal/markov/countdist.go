package markov

import (
	"cmp"
	"fmt"
	"slices"

	"pufferfish/internal/dist"
	"pufferfish/internal/floats"
	"pufferfish/internal/sched"
)

// CountDist returns the exact distribution of the additive functional
// N = Σ_{t=1..T} w[X_t] with integer per-state weights w, computed by
// forward dynamic programming over (state, partial sum) in
// O(T·k²·range) time.
//
// This is the distribution oracle the Wasserstein Mechanism needs for
// chain instantiations: with w the indicator of a state, N is that
// state's occupancy count, so F = N/T is the released relative
// frequency.
func (c Chain) CountDist(T int, w []int) (dist.Discrete, error) {
	return c.CountDistGiven(T, w, 0, 0)
}

// CountDistGiven returns the distribution of N = Σ_t w[X_t]
// conditioned on X_cond = condState, where cond is a 1-based node
// index; cond == 0 means no conditioning. It returns an error when
// the conditioning event has probability zero. It is CountDists on a
// single query.
func (c Chain) CountDistGiven(T int, w []int, cond, condState int) (dist.Discrete, error) {
	ds, err := CountDists([]Chain{c}, T, w, []CountQuery{{Cond: cond, State: condState}}, 1)
	if err != nil {
		return dist.Discrete{}, err
	}
	return ds[0], nil
}

// CountQuery names one distribution for CountDists: N = Σ_t w[X_t]
// under chains[Chain], given X_Cond = State. Cond is a 1-based node
// index; 0 means no conditioning.
type CountQuery struct{ Chain, Cond, State int }

// CountDists returns the exact distribution of N = Σ_{t=1..T} w[X_t]
// for every query (dists[i] answers queries[i]), by forward dynamic
// programming over (state, partial sum).
//
// Conditioning on X_pos = v only restricts step pos of the program, so
// the batch shares its work. Each chain's unconditioned prefix rows
// are computed once, and each conditional program starts at its own
// position from the prefix row before it: T−pos+1 steps instead of T.
// Positions are swept in contiguous chunks fanned over parallelism
// workers (0 = every CPU, 1 = serial). A chunk rebuilds its first
// prefix row instead of keeping every row, so a worker holds three
// tables of k×(T·(max w − min w)+1) floats whatever the batch size.
//
// Every distribution is bit-identical to the one-query program, at any
// parallelism: each cell of a step sums its terms in ascending
// predecessor-state order however the program was started. The error,
// if any, is the first failing query's in slice order; a
// zero-probability conditioning event is an error.
func CountDists(chains []Chain, T int, w []int, queries []CountQuery, parallelism int) ([]dist.Discrete, error) {
	if T < 1 {
		return nil, fmt.Errorf("markov: chain length %d < 1", T)
	}
	errs := make([]error, len(queries))
	order := make([]int, 0, len(queries)) // valid queries by (chain, stop)
	for i, q := range queries {
		if errs[i] = checkCountQuery(chains, T, w, q); errs[i] == nil {
			order = append(order, i)
		}
	}
	out := make([]dist.Discrete, len(queries))
	if len(order) > 0 {
		sw := newCountSweep(T, w)
		key := func(i int) [2]int { return [2]int{queries[i].Chain, sw.stop(queries[i])} }
		slices.SortFunc(order, func(a, b int) int {
			ka, kb := key(a), key(b)
			return cmp.Or(cmp.Compare(ka[0], kb[0]), cmp.Compare(ka[1], kb[1]))
		})
		// order[runs[g]:runs[g+1]] is the g-th (chain, stop) group. Each
		// chain's groups split into contiguous chunks, one job each.
		var runs []int
		for i := range order {
			if i == 0 || key(order[i]) != key(order[i-1]) {
				runs = append(runs, i)
			}
		}
		runs = append(runs, len(order))
		pool := sched.New(parallelism)
		var jobs [][]int
		for g := 0; g < len(runs)-1; {
			h := g + 1
			for h < len(runs)-1 && queries[order[runs[h]]].Chain == queries[order[runs[g]]].Chain {
				h++
			}
			nc := pool.ChunkCount(h - g)
			for c := 0; c < nc; c++ {
				jobs = append(jobs, order[runs[g+c*(h-g)/nc]:runs[g+(c+1)*(h-g)/nc]])
			}
			g = h
		}
		pool.ForEach(len(jobs), func(j int) {
			sw.run(chains[queries[jobs[j][0]].Chain], queries, jobs[j], out, errs)
		})
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func checkCountQuery(chains []Chain, T int, w []int, q CountQuery) error {
	if q.Chain < 0 || q.Chain >= len(chains) {
		return fmt.Errorf("markov: chain index %d outside [0,%d)", q.Chain, len(chains))
	}
	k := chains[q.Chain].K()
	if len(w) != k {
		return fmt.Errorf("markov: weight vector has length %d, want %d", len(w), k)
	}
	if q.Cond < 0 || q.Cond > T {
		return fmt.Errorf("markov: conditioning index %d outside [0,%d]", q.Cond, T)
	}
	if q.Cond > 0 && (q.State < 0 || q.State >= k) {
		return fmt.Errorf("markov: conditioning state %d outside [0,%d)", q.State, k)
	}
	return nil
}

// countSweep is the forward program of one CountDists call. Row x of a
// k×size table holds P(X_1..X_t consistent with the conditioning,
// X_t = x, Σ_{s≤t} w[X_s] = n + t·wMin) at index n: partial sums are
// shifted by wMin at every step, so after t steps they fill [0, t·span].
type countSweep struct {
	T, k       int
	wMin, span int
	size       int   // T·span + 1, the row stride
	atom       []int // w[x] − wMin
}

func newCountSweep(T int, w []int) *countSweep {
	s := &countSweep{T: T, k: len(w), wMin: slices.Min(w)}
	s.span = slices.Max(w) - s.wMin
	s.size = T*s.span + 1
	s.atom = make([]int, len(w))
	for x, v := range w {
		s.atom[x] = v - s.wMin
	}
	return s
}

// stop is the step before which a query's program leaves the shared
// prefix: its conditioned position, or T+1 for no conditioning (the
// prefix after step T is then the answer).
func (s *countSweep) stop(q CountQuery) int {
	if q.Cond == 0 {
		return s.T + 1
	}
	return q.Cond
}

// run answers the queries qs (one chain, ascending stops): it rolls
// the unconditioned prefix forward from step 1 and, at each stop,
// finishes every query there from its own copy of the program. The
// tables are pooled slabs, so a warm sweep allocates only its results.
func (s *countSweep) run(c Chain, queries []CountQuery, qs []int, out []dist.Discrete, errs []error) {
	n := s.k * s.size
	prefix, cur, next := floats.GetBuffer(n), floats.GetBuffer(n), floats.GetBuffer(n)
	mass := floats.GetBuffer(s.size)
	t := 0 // prefix holds the unconditioned program after step t
	for _, qi := range qs {
		q := queries[qi]
		pos := s.stop(q)
		for ; t < pos-1; t++ {
			if t == 0 {
				s.start(c, prefix, -1)
			} else {
				s.step(c, next, prefix, t+1, -1)
				prefix, next = next, prefix
			}
		}
		final := prefix
		if pos <= s.T {
			if pos == 1 {
				s.start(c, cur, q.State)
			} else {
				s.step(c, cur, prefix, pos, q.State)
			}
			for u := pos + 1; u <= s.T; u++ {
				s.step(c, next, cur, u, -1)
				cur, next = next, cur
			}
			final = cur
		}
		out[qi], errs[qi] = s.collapse(final, mass, q)
	}
	floats.PutBuffer(prefix)
	floats.PutBuffer(cur)
	floats.PutBuffer(next)
	floats.PutBuffer(mass)
}

// start writes step 1 into dst; only ≥ 0 keeps only X_1 = only.
func (s *countSweep) start(c Chain, dst []float64, only int) {
	for x := 0; x < s.k; x++ {
		row := dst[x*s.size : x*s.size+s.span+1]
		clear(row)
		if only < 0 || x == only {
			row[s.atom[x]] = c.Init[x]
		}
	}
}

// step writes step t into dst from step t−1 in src; only ≥ 0 keeps
// only X_t = only. Every target cell sums its terms in ascending x,
// the order of the historical (x, n, y) loop nest, so results do not
// depend on where the program started.
func (s *countSweep) step(c Chain, dst, src []float64, t, only int) {
	width := (t-1)*s.span + 1 // valid partial sums in src
	for y := 0; y < s.k; y++ {
		row := dst[y*s.size : y*s.size+width+s.span]
		clear(row)
		if only >= 0 && y != only {
			continue
		}
		acc := row[s.atom[y] : s.atom[y]+width]
		for x := 0; x < s.k; x++ {
			p := c.P.RawRow(x)[y]
			//privlint:allow floatcompare structural-zero sparsity skip
			if p == 0 {
				continue
			}
			for n, m := range src[x*s.size : x*s.size+width] {
				acc[n] += m * p
			}
		}
	}
}

// collapse sums the final program over X_T and normalizes it into q's
// distribution.
func (s *countSweep) collapse(final, mass []float64, q CountQuery) (dist.Discrete, error) {
	clear(mass)
	for x := 0; x < s.k; x++ {
		for n, p := range final[x*s.size : (x+1)*s.size] {
			mass[n] += p
		}
	}
	total := floats.Sum(mass)
	if total <= 1e-300 {
		return dist.Discrete{}, fmt.Errorf("markov: conditioning event X_%d=%d has probability zero", q.Cond, q.State)
	}
	atoms := 0
	for _, p := range mass {
		if p > 0 {
			atoms++
		}
	}
	// One backing array for both retained slices.
	buf := make([]float64, 2*atoms)
	xs, ps := buf[:atoms:atoms], buf[atoms:]
	i := 0
	for n, p := range mass {
		if p <= 0 {
			continue
		}
		xs[i] = float64(n + s.T*s.wMin)
		ps[i] = p / total
		i++
	}
	// The support is built in increasing order, so the sort-free
	// constructor applies; it renormalizes exactly like dist.New.
	return dist.FromSorted(xs, ps)
}

// NodeMarginalGiven returns P(X_j = · | X_i = a) for 1-based node
// indices, computed exactly from the chain (forwards via the power
// cache for j > i, backwards via Bayes for j < i). Used by the tests
// to validate max-influence formulas.
func (c Chain) NodeMarginalGiven(T, j, i, a int) ([]float64, error) {
	if j < 1 || j > T || i < 1 || i > T {
		return nil, fmt.Errorf("markov: node index out of range")
	}
	k := c.K()
	pc := NewPowerCache(c.P)
	marg := c.Marginals(T)
	if marg[i-1][a] <= 0 {
		return nil, fmt.Errorf("markov: conditioning event X_%d=%d has probability zero", i, a)
	}
	out := make([]float64, k)
	switch {
	case j == i:
		out[a] = 1
	case j > i:
		p := pc.Pow(j - i)
		copy(out, p.RawRow(a))
	default: // j < i: P(X_j=y | X_i=a) ∝ P(X_j=y)·P^{i−j}(y,a)
		p := pc.Pow(i - j)
		var tot float64
		for y := 0; y < k; y++ {
			out[y] = marg[j-1][y] * p.At(y, a)
			tot += out[y]
		}
		for y := range out {
			out[y] /= tot
		}
	}
	return out, nil
}
