package matrix

import (
	"math"
	"sync"
	"sync/atomic"

	"pufferfish/internal/sched"
)

// InfluenceCache memoizes, per power j of one PowerCache's matrix, the
// max-log-ratio tables at the heart of the MQM exact scorer
// (Section 4.4.1 of the paper):
//
//	Fwd(j)[x*k+x′] = max_y log Pʲ(x,y) − log Pʲ(x′,y)
//	Bwd(j)[x*k+x′] = max_y log Pʲ(y,x) − log Pʲ(y,x′)
//
// The direct evaluation costs one math.Log per (x, x′, y) triple —
// O(k³) transcendentals per power. This cache instead takes the
// element-wise log of Pʲ once (k² transcendentals) into a row-major
// table plus a transposed copy for the column-oriented Bwd sweep, and
// reduces each (x, x′) entry as a stride-1 subtract-max over two
// contiguous rows — pure FLOPs. log(p) − log(q) differs from log(p/q)
// by a couple of ulps; internal/core/mqmexact.go documents the error
// bound the scorer's accuracy tests pin.
//
// Zero probabilities keep the scorer's conventions without branches:
// log(0) is −Inf, so p>0,q=0 gives +Inf, p=0 gives −Inf or (−Inf)−(−Inf)
// = NaN — and since the sweep folds with `if d > best`, NaN and −Inf
// never win a max, exactly as the old logRatio-based kernel behaved.
//
// Rows live in grow-sized slabs like PowerCache powers and are built on
// demand: the scorer asks for as many rows as its quilt sweep can read
// (the stationary shortcut starts small and grows at most once), and
// growing from n to m rows computes only rows n+1…m — which is also
// what makes scoring a chain of length T+1 after T nearly free.
// Alongside each row the cache records the flat index of the row's
// maximum entry (diagonal excluded); the scorer uses these as O(1)
// influence lower bounds to prune dominated quilts.
//
// Safe for concurrent use: readers take a shared lock, Grow an
// exclusive one for the whole row build, and Len reads a counter
// published with the rows, so it never waits on a build. Rows are
// immutable once published, and their content is bit-for-bit
// independent of how growth was batched (each row depends only on Pʲ,
// and PowerCache builds powers by the same sequential recurrence
// regardless of batching).
type InfluenceCache struct {
	mu             sync.RWMutex
	pc             *PowerCache
	fwd, bwd       [][]float64 // index j−1, each k·k, views into slabs
	fwdArg, bwdArg []int32     // index j−1: flat argmax of the row (off-diagonal)
	// rows is len(fwd) as of the last completed Grow, stored once the
	// new rows are built.
	rows atomic.Int64
}

// NewInfluenceCache returns an empty cache over pc's matrix powers.
func NewInfluenceCache(pc *PowerCache) *InfluenceCache {
	return &InfluenceCache{pc: pc}
}

// Base returns the underlying power cache.
func (ic *InfluenceCache) Base() *PowerCache { return ic.pc }

// Len returns the number of built power rows. It takes no lock, so it
// returns at once even while a Grow is building rows.
func (ic *InfluenceCache) Len() int {
	return int(ic.rows.Load())
}

// Grow extends the cache to cover powers 1…n, fanning the per-power row
// builds across the pool (each row writes a disjoint slab range). The
// underlying PowerCache is grown first, so workers only take its read
// path.
func (ic *InfluenceCache) Grow(n int, pool sched.Pool) {
	if n < 1 || ic.Len() >= n {
		return
	}
	ic.pc.Grow(n)
	ic.mu.Lock()
	defer ic.mu.Unlock()
	have := len(ic.fwd)
	if have >= n {
		return
	}
	k := ic.pc.p.rows
	kk := k * k
	slab := make([]float64, 2*(n-have)*kk)
	for j := have; j < n; j++ {
		off := 2 * (j - have) * kk
		ic.fwd = append(ic.fwd, slab[off:off+kk])
		ic.bwd = append(ic.bwd, slab[off+kk:off+2*kk])
	}
	ic.fwdArg = append(ic.fwdArg, make([]int32, n-have)...)
	ic.bwdArg = append(ic.bwdArg, make([]int32, n-have)...)
	pool.ForEach(n-have, func(d int) {
		j := have + d + 1
		fa, ba := buildInfluenceRow(ic.pc.Pow(j), ic.fwd[j-1], ic.bwd[j-1])
		ic.fwdArg[j-1] = fa
		ic.bwdArg[j-1] = ba
	})
	ic.rows.Store(int64(n))
}

// Tables returns views of the first n cached rows (and their argmax
// indices); the caller must have Grown to at least n. The returned
// slices are stable snapshots — rows are immutable and later growth
// never touches the returned headers — and must not be modified.
func (ic *InfluenceCache) Tables(n int) (fwd, bwd [][]float64, fwdArg, bwdArg []int32) {
	ic.mu.RLock()
	defer ic.mu.RUnlock()
	return ic.fwd[:n:n], ic.bwd[:n:n], ic.fwdArg[:n:n], ic.bwdArg[:n:n]
}

// Fwd returns the forward max-log-ratio row for power j ≥ 1, growing
// serially as needed.
func (ic *InfluenceCache) Fwd(j int) []float64 {
	ic.Grow(j, sched.New(1))
	ic.mu.RLock()
	defer ic.mu.RUnlock()
	return ic.fwd[j-1]
}

// Bwd returns the backward max-log-ratio row for power j ≥ 1, growing
// serially as needed.
func (ic *InfluenceCache) Bwd(j int) []float64 {
	ic.Grow(j, sched.New(1))
	ic.mu.RLock()
	defer ic.mu.RUnlock()
	return ic.bwd[j-1]
}

// buildInfluenceRow fills f and b (each k·k) with the max-log-ratio
// tables of the single power pj and returns the off-diagonal argmax of
// each. Scratch log tables come from the matrix pool, so steady-state
// growth allocates nothing beyond the row slabs.
func buildInfluenceRow(pj *Dense, f, b []float64) (fArg, bArg int32) {
	k := pj.rows
	lg := GetScratch(k, k)  // lg[x][y]  = log Pʲ(x,y)
	lgT := GetScratch(k, k) // lgT[x][y] = log Pʲ(y,x)
	for x := 0; x < k; x++ {
		src := pj.data[x*k : (x+1)*k]
		dst := lg.data[x*k : (x+1)*k]
		for y, v := range src {
			if v > 0 {
				dst[y] = math.Log(v)
			} else {
				dst[y] = math.Inf(-1)
			}
		}
	}
	for x := 0; x < k; x++ {
		row := lg.data[x*k : (x+1)*k]
		for y, v := range row {
			lgT.data[y*k+x] = v
		}
	}
	fArg = maxRatioRow(lg.data, f, k)
	bArg = maxRatioRow(lgT.data, b, k)
	PutScratch(lg)
	PutScratch(lgT)
	return fArg, bArg
}

// maxRatioRow computes out[x*k+x′] = max_y lg[x*k+y] − lg[x′*k+y] for
// every ordered pair and returns the flat index of the largest
// off-diagonal entry (first in row-major order under a strict `>`;
// defaults to 0·k+1, which exists because k ≥ 2 whenever the scorer
// runs). One sweep over d = lg[x] − lg[x′] fills both orders: max d is
// the (x, x′) entry and −min d the (x′, x) one, because IEEE
// subtraction is sign-symmetric (lg[x′] − lg[x] is exactly −d). The
// entry is written 0 − min d, not −min d: d is never −0 (no log is −0),
// so where lg[x′] − lg[x] = +0, 0 − (+0) gives that same +0 where
// negation would give −0. The zero conventions fold the same way in
// both orders: p>0 over q=0 gives d = +Inf (wins the max, and
// 0 − +Inf = −Inf for the reverse pair, where p=0), and
// (−Inf)−(−Inf) = NaN fails both `>` and `<`, so it never wins either
// fold — matching logRatio's conventions exactly.
func maxRatioRow(lg, out []float64, k int) int32 {
	ninf, pinf := math.Inf(-1), math.Inf(1)
	for x := 0; x < k; x++ {
		a := lg[x*k : (x+1)*k]
		for xp := x; xp < k; xp++ {
			q := lg[xp*k : (xp+1)*k]
			q = q[:len(a)]
			hi, lo := ninf, pinf
			for y, ay := range a {
				d := ay - q[y]
				if d > hi {
					hi = d
				}
				if d < lo {
					lo = d
				}
			}
			out[x*k+xp] = hi
			out[xp*k+x] = 0 - lo
		}
	}
	rowBest := ninf
	rowArg := int32(1) // flat (0, 1), the first off-diagonal pair
	for x := 0; x < k; x++ {
		for xp, v := range out[x*k : (x+1)*k] {
			if x != xp && v > rowBest {
				rowBest = v
				rowArg = int32(x*k + xp)
			}
		}
	}
	return rowArg
}
