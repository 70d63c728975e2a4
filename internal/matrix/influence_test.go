package matrix

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"pufferfish/internal/sched"
)

// randomStochastic returns a k×k row-stochastic matrix; zeroFrac of the
// entries are planted zeros so the ±Inf/NaN conventions get exercised.
func randomStochastic(k int, zeroFrac float64, rng *rand.Rand) *Dense {
	m := NewDense(k, k)
	for i := 0; i < k; i++ {
		sum := 0.0
		for j := 0; j < k; j++ {
			v := 0.0
			// Keep at least one positive entry per row so it normalizes.
			if j == i || rng.Float64() >= zeroFrac {
				v = 0.05 + rng.Float64()
			}
			m.Set(i, j, v)
			sum += v
		}
		for j := 0; j < k; j++ {
			m.Set(i, j, m.At(i, j)/sum)
		}
	}
	return m
}

// refMaxLogRatio is the direct O(k³) kernel the cache replaces:
// max_y log(p/q) with the old conventions — p>0 over q=0 gives +Inf,
// p=0 contributes −Inf, and the `>` fold skips NaN.
func refMaxLogRatio(pj *Dense, forward bool) []float64 {
	k := pj.rows
	out := make([]float64, k*k)
	at := func(a, b int) float64 {
		if forward {
			return pj.At(a, b)
		}
		return pj.At(b, a)
	}
	for x := 0; x < k; x++ {
		for xp := 0; xp < k; xp++ {
			best := math.Inf(-1)
			for y := 0; y < k; y++ {
				p, q := at(x, y), at(xp, y)
				var v float64
				switch {
				case p == 0:
					v = math.Inf(-1)
				case q == 0:
					v = math.Inf(1)
				default:
					v = math.Log(p / q)
				}
				if v > best {
					best = v
				}
			}
			out[x*k+xp] = best
		}
	}
	return out
}

// TestInfluenceTablesMatchReference: the log-table kernel agrees with
// the direct log(p/q) kernel exactly on every ±Inf entry and to a few
// ulps on finite ones, including matrices with planted zeros.
func TestInfluenceTablesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	for _, zeroFrac := range []float64{0, 0.4} {
		m := randomStochastic(5, zeroFrac, rng)
		ic := NewInfluenceCache(NewPowerCache(m))
		ic.Grow(6, sched.New(1))
		for j := 1; j <= 6; j++ {
			pj := ic.Base().Pow(j)
			for _, side := range []struct {
				name string
				got  []float64
				fwd  bool
			}{
				{"fwd", ic.Fwd(j), true},
				{"bwd", ic.Bwd(j), false},
			} {
				want := refMaxLogRatio(pj, side.fwd)
				for i, w := range want {
					g := side.got[i]
					if math.IsInf(w, 0) || math.IsInf(g, 0) {
						if g != w {
							t.Fatalf("zeroFrac=%g %s(%d)[%d] = %v, want %v exactly", zeroFrac, side.name, j, i, g, w)
						}
						continue
					}
					if math.Abs(g-w) > 1e-12 {
						t.Fatalf("zeroFrac=%g %s(%d)[%d] = %v, want %v (diff %g)", zeroFrac, side.name, j, i, g, w, g-w)
					}
				}
			}
		}
	}
}

// TestInfluenceArgmax: the recorded argmax is an off-diagonal index
// whose entry equals the row's off-diagonal maximum (the scorer uses
// it as an O(1) influence lower bound, so it must never overstate).
func TestInfluenceArgmax(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 24))
	m := randomStochastic(6, 0.3, rng)
	ic := NewInfluenceCache(NewPowerCache(m))
	ic.Grow(5, sched.New(1))
	fwd, bwd, fwdArg, bwdArg := ic.Tables(5)
	check := func(name string, row []float64, arg int32) {
		k := 6
		x, xp := int(arg)/k, int(arg)%k
		if x == xp {
			t.Fatalf("%s argmax %d is diagonal", name, arg)
		}
		best := math.Inf(-1)
		for i, v := range row {
			if i/k != i%k && v > best {
				best = v
			}
		}
		if row[arg] != best {
			t.Fatalf("%s argmax entry %v, row max %v", name, row[arg], best)
		}
	}
	for j := 0; j < 5; j++ {
		check("fwd", fwd[j], fwdArg[j])
		check("bwd", bwd[j], bwdArg[j])
	}
}

// TestInfluenceCacheIncrementalBitIdentical: growing 1→2→…→n one power
// at a time yields rows bit-identical to one Grow(n) — the contract
// that makes incremental per-length scoring safe to share.
func TestInfluenceCacheIncrementalBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	m := randomStochastic(4, 0.25, rng)
	const n = 8

	oneShot := NewInfluenceCache(NewPowerCache(m))
	oneShot.Grow(n, sched.New(0))
	stepped := NewInfluenceCache(NewPowerCache(m))
	for j := 1; j <= n; j++ {
		stepped.Grow(j, sched.New(1))
	}

	of, ob, ofa, oba := oneShot.Tables(n)
	sf, sb, sfa, sba := stepped.Tables(n)
	for j := 0; j < n; j++ {
		for i := range of[j] {
			if of[j][i] != sf[j][i] || ob[j][i] != sb[j][i] {
				t.Fatalf("power %d entry %d differs between one-shot and stepped growth", j+1, i)
			}
		}
		if ofa[j] != sfa[j] || oba[j] != sba[j] {
			t.Fatalf("power %d argmax differs between one-shot and stepped growth", j+1)
		}
	}
}

// TestInfluenceCacheConcurrentGrow hammers one cache with interleaved
// Grow and read traffic; under -race this validates the locking, and
// every read must see rows identical to a serially built reference.
func TestInfluenceCacheConcurrentGrow(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	m := randomStochastic(3, 0.2, rng)
	const maxN = 24

	ref := NewInfluenceCache(NewPowerCache(m))
	ref.Grow(maxN, sched.New(1))
	refFwd, refBwd, _, _ := ref.Tables(maxN)

	ic := NewInfluenceCache(NewPowerCache(m))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 40; it++ {
				n := 1 + (g*40+it)%maxN
				if g%2 == 0 {
					ic.Grow(n, sched.New(1))
					fwd, bwd, _, _ := ic.Tables(n)
					for i, v := range fwd[n-1] {
						if v != refFwd[n-1][i] || bwd[n-1][i] != refBwd[n-1][i] {
							t.Errorf("concurrent Grow(%d): row differs from reference", n)
							return
						}
					}
				} else {
					row := ic.Bwd(n)
					for i, v := range row {
						if v != refBwd[n-1][i] {
							t.Errorf("concurrent Bwd(%d)[%d] differs from reference", n, i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if ic.Len() != maxN {
		t.Errorf("Len = %d after concurrent growth to %d", ic.Len(), maxN)
	}
}

// refMaxRatioRow is the one-entry-per-pass sweep maxRatioRow replaced:
// each ordered pair (x, x′) gets its own pass over y, and the argmax is
// folded in the same row-major pass.
func refMaxRatioRow(lg, out []float64, k int) int32 {
	rowBest := math.Inf(-1)
	rowArg := int32(1)
	for x := 0; x < k; x++ {
		a := lg[x*k : (x+1)*k]
		for xp := 0; xp < k; xp++ {
			q := lg[xp*k : (xp+1)*k]
			best := math.Inf(-1)
			for y, ay := range a {
				if d := ay - q[y]; d > best {
					best = d
				}
			}
			out[x*k+xp] = best
			if x != xp && best > rowBest {
				rowBest = best
				rowArg = int32(x*k + xp)
			}
		}
	}
	return rowArg
}

// TestPairedKernelBitIdentical: filling (x, x′) and (x′, x) from one
// sweep gives every entry bit for bit (±0, ±Inf and NaN-only folds
// included) and the same argmax as one pass per ordered pair, on the
// forward and transposed log tables of random matrices with zeros —
// including all-zero columns, whose transposed rows are all −Inf.
func TestPairedKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 30))
	for trial := 0; trial < 120; trial++ {
		k := 2 + rng.IntN(59)
		m := randomStochastic(k, []float64{0, 0.3, 0.8}[trial%3], rng)
		if trial%5 == 0 {
			// Empty one column (its mass moves to the diagonal) so the
			// transposed table has a row of −Inf.
			c := rng.IntN(k)
			for x := 0; x < k; x++ {
				if x != c {
					m.Set(x, x, m.At(x, x)+m.At(x, c))
					m.Set(x, c, 0)
				}
			}
		}
		lg := NewDense(k, k)
		lgT := NewDense(k, k)
		for x := 0; x < k; x++ {
			for y := 0; y < k; y++ {
				v := math.Inf(-1)
				if p := m.At(x, y); p > 0 {
					v = math.Log(p)
				}
				lg.Set(x, y, v)
				lgT.Set(y, x, v)
			}
		}
		for _, tab := range []*Dense{lg, lgT} {
			got := make([]float64, k*k)
			want := make([]float64, k*k)
			gotArg := maxRatioRow(tab.data, got, k)
			wantArg := refMaxRatioRow(tab.data, want, k)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d k=%d entry %d: paired %v (%#x), reference %v (%#x)",
						trial, k, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
			if gotArg != wantArg {
				t.Fatalf("trial %d k=%d: paired argmax %d, reference %d", trial, k, gotArg, wantArg)
			}
		}
	}
}

// TestLenDuringBuild: Len answers while a Grow holds the cache's lock
// for a row build, instead of queueing behind it.
func TestLenDuringBuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	ic := NewInfluenceCache(NewPowerCache(randomStochastic(4, 0.2, rng)))
	ic.Grow(3, sched.New(1))
	ic.mu.Lock() // what Grow holds while it builds rows
	defer ic.mu.Unlock()
	got := make(chan int, 1)
	go func() { got <- ic.Len() }()
	select {
	case n := <-got:
		if n != 3 {
			t.Fatalf("Len = %d, want 3", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Len blocked behind the cache lock")
	}
}
