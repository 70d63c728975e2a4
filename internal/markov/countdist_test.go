package markov

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pufferfish/internal/floats"
)

func TestCountDistTwoSteps(t *testing.T) {
	// T=2 binary chain: N = X1 + X2 (w = identity on {0,1}).
	c := theta1() // init [1,0], P = [[.9,.1],[.4,.6]]
	d, err := c.CountDist(2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// X1=0 surely. N=0: X2=0 → 0.9; N=1: X2=1 → 0.1.
	if !floats.Eq(d.Prob(0), 0.9, 1e-12) || !floats.Eq(d.Prob(1), 0.1, 1e-12) {
		t.Errorf("dist = %v / %v", d.Support(), d.Masses())
	}
}

func TestCountDistMatchesMonteCarlo(t *testing.T) {
	c := theta2()
	T := 6
	d, err := c.CountDist(T, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(71, 72))
	n := 200000
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		seq := c.Sample(T, rng)
		s := 0
		for _, x := range seq {
			s += x
		}
		counts[s]++
	}
	for s := 0; s <= T; s++ {
		emp := float64(counts[s]) / float64(n)
		if math.Abs(emp-d.Prob(float64(s))) > 0.01 {
			t.Errorf("P(N=%d): empirical %v vs exact %v", s, emp, d.Prob(float64(s)))
		}
	}
}

func TestCountDistGivenBayesConsistency(t *testing.T) {
	// P(N=n) = Σ_a P(N=n | X_i=a)·P(X_i=a).
	c := theta2()
	T, i := 7, 4
	w := []int{0, 1}
	uncond, err := c.CountDist(T, w)
	if err != nil {
		t.Fatal(err)
	}
	marg := c.Marginals(T)[i-1]
	for n := 0; n <= T; n++ {
		var mix float64
		for a := 0; a < 2; a++ {
			d, err := c.CountDistGiven(T, w, i, a)
			if err != nil {
				t.Fatal(err)
			}
			mix += d.Prob(float64(n)) * marg[a]
		}
		if !floats.Eq(mix, uncond.Prob(float64(n)), 1e-10) {
			t.Errorf("N=%d: mixture %v vs marginal %v", n, mix, uncond.Prob(float64(n)))
		}
	}
}

func TestCountDistGivenZeroProbEvent(t *testing.T) {
	c := theta1() // starts at state 0 surely
	if _, err := c.CountDistGiven(3, []int{0, 1}, 1, 1); err == nil {
		t.Error("conditioning on zero-probability event should error")
	}
}

func TestCountDistGivenValidation(t *testing.T) {
	c := theta1()
	if _, err := c.CountDistGiven(3, []int{0}, 0, 0); err == nil {
		t.Error("short weight vector accepted")
	}
	if _, err := c.CountDistGiven(0, []int{0, 1}, 0, 0); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := c.CountDistGiven(3, []int{0, 1}, 9, 0); err == nil {
		t.Error("out-of-range conditioning index accepted")
	}
	if _, err := c.CountDistGiven(3, []int{0, 1}, 1, 5); err == nil {
		t.Error("out-of-range conditioning state accepted")
	}
}

func TestCountDistNegativeWeights(t *testing.T) {
	// Weights may be negative: N = Σ ±1.
	c := theta2()
	d, err := c.CountDist(4, []int{-1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Support must lie in {-4, -2, 0, 2, 4}.
	for _, x := range d.Support() {
		if int(x)%2 != 0 || x < -4 || x > 4 {
			t.Errorf("unexpected support point %v", x)
		}
	}
	if !floats.Eq(floats.Sum(d.Masses()), 1, 1e-9) {
		t.Error("masses do not sum to one")
	}
}

// TestCountDistOneSignedWeights: weights that do not straddle zero
// (all positive, all negative) give the exact distribution of N,
// unconditioned and given every node value, against brute-force
// enumeration of all 2^T paths. Partial sums used to be stored at the
// final sum's offset, which indexed outside the table for such weights.
func TestCountDistOneSignedWeights(t *testing.T) {
	c := BinaryChain(0.3, 0.8, 0.6)
	const T = 5
	for _, w := range [][]int{{1, 2}, {-1, -2}, {2, 3}} {
		for cond := 0; cond <= T; cond++ {
			for state := 0; state < 2; state++ {
				if cond == 0 && state > 0 {
					continue
				}
				want := map[float64]float64{}
				var total float64
				for path := 0; path < 1<<T; path++ {
					x := func(t int) int { return path >> (t - 1) & 1 }
					if cond > 0 && x(cond) != state {
						continue
					}
					p := c.Init[x(1)]
					n := w[x(1)]
					for t := 2; t <= T; t++ {
						p *= c.P.At(x(t-1), x(t))
						n += w[x(t)]
					}
					want[float64(n)] += p
					total += p
				}
				d, err := c.CountDistGiven(T, w, cond, state)
				if err != nil {
					t.Fatalf("w=%v X_%d=%d: %v", w, cond, state, err)
				}
				if d.Len() != len(want) {
					t.Errorf("w=%v X_%d=%d: support %v, want %d points", w, cond, state, d.Support(), len(want))
				}
				for i := 0; i < d.Len(); i++ {
					n, p := d.Atom(i)
					if !floats.Eq(p, want[n]/total, 1e-12) {
						t.Errorf("w=%v X_%d=%d: P(N=%v) = %v, want %v", w, cond, state, n, p, want[n]/total)
					}
				}
			}
		}
	}
}

// TestCountDistsBatch: a batch in arbitrary order — two chains
// interleaved, duplicates, unconditioned queries — answers every query
// exactly as the one-query program does, at every parallelism, and
// reports the first failing query's error in slice order.
func TestCountDistsBatch(t *testing.T) {
	chains := []Chain{theta1(), theta2()}
	const T = 9
	w := []int{-1, 2}
	rng := rand.New(rand.NewPCG(5, 6))
	queries := make([]CountQuery, 40)
	for i := range queries {
		queries[i] = CountQuery{Chain: rng.IntN(2), Cond: rng.IntN(T + 1), State: rng.IntN(2)}
		if queries[i].Chain == 0 && queries[i].Cond == 1 {
			queries[i].State = 0 // theta1 starts in state 0 surely
		}
	}
	queries[7] = queries[3]
	for _, par := range []int{1, 0, 3} {
		got, err := CountDists(chains, T, w, queries, par)
		if err != nil {
			t.Fatalf("p=%d: %v", par, err)
		}
		for i, q := range queries {
			want, err := chains[q.Chain].CountDistGiven(T, w, q.Cond, q.State)
			if err != nil {
				t.Fatal(err)
			}
			if got[i].Len() != want.Len() {
				t.Fatalf("p=%d query %d %+v: %d atoms, want %d", par, i, q, got[i].Len(), want.Len())
			}
			for a := 0; a < want.Len(); a++ {
				gx, gp := got[i].Atom(a)
				wx, wp := want.Atom(a)
				if math.Float64bits(gx) != math.Float64bits(wx) || math.Float64bits(gp) != math.Float64bits(wp) {
					t.Fatalf("p=%d query %d %+v atom %d: (%v, %v), want (%v, %v)", par, i, q, a, gx, gp, wx, wp)
				}
			}
		}
		bad := append(slices.Clone(queries), CountQuery{Chain: 0, Cond: 1, State: 1}, CountQuery{Chain: 1, Cond: T + 1})
		if _, err := CountDists(chains, T, w, bad, par); err == nil || !strings.Contains(err.Error(), "probability zero") {
			t.Errorf("p=%d: error %v, want the zero-probability query's", par, err)
		}
	}
}

// Property: the conditional count distribution has mean equal to the
// Monte-Carlo conditional mean on random chains.
func TestCountDistGivenProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 73))
		c := randomIrreducibleChain(r, 2)
		T := 3 + r.IntN(5)
		i := 1 + r.IntN(T)
		a := r.IntN(2)
		if c.Marginals(T)[i-1][a] < 0.05 {
			return true // too rare for a quick Monte-Carlo check
		}
		d, err := c.CountDistGiven(T, []int{0, 1}, i, a)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 99))
		var sum, n float64
		for trial := 0; trial < 60000; trial++ {
			seq := c.Sample(T, rng)
			if seq[i-1] != a {
				continue
			}
			s := 0
			for _, x := range seq {
				s += x
			}
			sum += float64(s)
			n++
		}
		if n < 500 {
			return true
		}
		return math.Abs(sum/n-d.Mean()) < 0.08
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestNodeMarginalGiven(t *testing.T) {
	c := theta1()
	T := 5
	// Forward: P(X3 = · | X2 = 1) should be row 1 of P.
	fwd, err := c.NodeMarginalGiven(T, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.EqSlices(fwd, []float64{0.4, 0.6}, 1e-12) {
		t.Errorf("forward = %v", fwd)
	}
	// Same node: point mass.
	same, err := c.NodeMarginalGiven(T, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.EqSlices(same, []float64{1, 0}, 0) {
		t.Errorf("same node = %v", same)
	}
	// Backward via Bayes: P(X1 = y | X2 = 0) — compare with the
	// Section 4.3 worked values for q=[0.8,0.2]: 0.9 and 0.1.
	c2 := MustNew([]float64{0.8, 0.2}, c.P)
	back, err := c2.NodeMarginalGiven(3, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.EqSlices(back, []float64{0.9, 0.1}, 1e-12) {
		t.Errorf("backward = %v, want [0.9 0.1]", back)
	}
	// Zero-probability conditioning.
	if _, err := c.NodeMarginalGiven(T, 1, 1, 1); err == nil {
		t.Error("zero-probability conditioning accepted")
	}
}

func TestBinaryIntervalClosedForms(t *testing.T) {
	b, err := NewBinaryInterval(0.2, 0.8, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Grid cross-check of the closed forms.
	gridPiMin := math.Inf(1)
	gridGap := math.Inf(1)
	for _, p0 := range floats.Linspace(0.2, 0.8, 25) {
		for _, p1 := range floats.Linspace(0.2, 0.8, 25) {
			c := BinaryChain(0.5, p0, p1)
			pm, err := c.PiMin()
			if err != nil {
				t.Fatal(err)
			}
			if pm < gridPiMin {
				gridPiMin = pm
			}
			g, err := c.EigengapReversible()
			if err != nil {
				t.Fatal(err)
			}
			if g < gridGap {
				gridGap = g
			}
		}
	}
	pm, _ := b.PiMin()
	if !floats.Eq(pm, gridPiMin, 1e-9) {
		t.Errorf("PiMin closed form %v vs grid %v", pm, gridPiMin)
	}
	gap, _ := b.Gap()
	if !floats.Eq(gap, gridGap, 1e-9) {
		t.Errorf("Gap closed form %v vs grid %v", gap, gridGap)
	}
	if rev, _ := b.Reversible(); !rev {
		t.Error("binary class must be reversible")
	}
	if !b.AllInitialDistributions() {
		t.Error("binary class should carry all initial distributions")
	}
	if got := len(b.Chains()); got != 16*16 {
		t.Errorf("default grid size = %d", got)
	}
}

func TestBinaryIntervalSymmetricAlpha(t *testing.T) {
	// For Θ = [α, 1−α]: π^min = α and g = 4α (used in EXPERIMENTS.md).
	alpha := 0.3
	b, err := NewBinaryInterval(alpha, 1-alpha, 100)
	if err != nil {
		t.Fatal(err)
	}
	pm, _ := b.PiMin()
	if !floats.Eq(pm, alpha, 1e-12) {
		t.Errorf("PiMin = %v, want α = %v", pm, alpha)
	}
	g, _ := b.Gap()
	if !floats.Eq(g, 4*alpha, 1e-12) {
		t.Errorf("Gap = %v, want 4α = %v", g, 4*alpha)
	}
}

func TestNewBinaryIntervalValidation(t *testing.T) {
	if _, err := NewBinaryInterval(0, 0.5, 10); err == nil {
		t.Error("α=0 accepted")
	}
	if _, err := NewBinaryInterval(0.5, 1, 10); err == nil {
		t.Error("β=1 accepted")
	}
	if _, err := NewBinaryInterval(0.6, 0.4, 10); err == nil {
		t.Error("α>β accepted")
	}
	if _, err := NewBinaryInterval(0.2, 0.4, 0); err == nil {
		t.Error("T=0 accepted")
	}
}

func TestFiniteClass(t *testing.T) {
	f, err := NewFinite([]Chain{theta1(), theta2()}, 100)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := f.PiMin()
	if err != nil {
		t.Fatal(err)
	}
	if !floats.Eq(pm, 0.2, 1e-9) {
		t.Errorf("class PiMin = %v, want 0.2", pm)
	}
	// Both chains reversible; reversible gaps are 2(1−0.5)=1 and
	// 2(1−0.5)=1, so class gap = 1 under eq 14's reversible branch.
	g, err := f.Gap()
	if err != nil {
		t.Fatal(err)
	}
	if !floats.Eq(g, 1.0, 1e-9) {
		t.Errorf("class Gap = %v, want 1", g)
	}
	if _, err := NewFinite(nil, 10); err == nil {
		t.Error("empty class accepted")
	}
}
