package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pufferfish/internal/bayes"
	"pufferfish/internal/dist"
	"pufferfish/internal/floats"
	"pufferfish/internal/markov"
)

// The reference below is the per-spec path CountInstance ran before
// conditional count distributions were batched: every secret pair
// computes both of its conditional distributions from scratch, a
// chain by a full forward dynamic program, a polytree by one message
// pass restricted to the pair's value. The randomized differential
// test requires the batched path to reproduce it bit for bit.

// refConditionalPairs is the historical CountInstance.ConditionalPairs:
// specs in order, both distributions per spec, first error in spec
// order.
func refConditionalPairs(sub Substrate, w []int) ([]DistributionPair, error) {
	specs, err := sub.SecretPairs()
	if err != nil {
		return nil, err
	}
	pairs := make([]DistributionPair, len(specs))
	for j, sp := range specs {
		mu, err := refCountDistGiven(sub, sp.Theta, w, sp.Pos, sp.A)
		if err != nil {
			return nil, err
		}
		nu, err := refCountDistGiven(sub, sp.Theta, w, sp.Pos, sp.B)
		if err != nil {
			return nil, err
		}
		pairs[j] = DistributionPair{Mu: mu, Nu: nu, Label: sp.label()}
	}
	return pairs, nil
}

func refCountDistGiven(sub Substrate, theta int, w []int, pos, val int) (dist.Discrete, error) {
	switch s := sub.(type) {
	case *ClassSubstrate:
		return refChainCountDist(s.chains[theta], s.class.T(), w, pos, val)
	case *NetworkSubstrate:
		return refNetCountDist(s.nets[theta], w, pos-1, val)
	}
	panic(fmt.Sprintf("no reference for substrate %T", sub))
}

// refChainCountDist is the historical markov.Chain.CountDistGiven
// with one change: partial sums are stored shifted by wMin at every
// step, not by the final sum's offset. On indicator weights and on
// weights that straddle zero the two are bit-identical; on the others
// the original indexed outside its table.
func refChainCountDist(c markov.Chain, T int, w []int, cond, condState int) (dist.Discrete, error) {
	k := c.K()
	wMin, wMax := w[0], w[0]
	for _, v := range w[1:] {
		wMin = min(wMin, v)
		wMax = max(wMax, v)
	}
	size := T*(wMax-wMin) + 1
	cur := make([]float64, k*size)
	next := make([]float64, k*size)
	for x := 0; x < k; x++ {
		if cond == 1 && x != condState {
			continue
		}
		cur[x*size+w[x]-wMin] += c.Init[x]
	}
	for t := 2; t <= T; t++ {
		clear(next)
		for x := 0; x < k; x++ {
			row := c.P.RawRow(x)
			for n, mass := range cur[x*size : (x+1)*size] {
				if mass == 0 {
					continue
				}
				for y := 0; y < k; y++ {
					if row[y] == 0 {
						continue
					}
					if cond == t && y != condState {
						continue
					}
					next[y*size+n+w[y]-wMin] += mass * row[y]
				}
			}
		}
		cur, next = next, cur
	}
	mass := make([]float64, size)
	for x := 0; x < k; x++ {
		for n, p := range cur[x*size : (x+1)*size] {
			mass[n] += p
		}
	}
	total := floats.Sum(mass)
	if total <= 1e-300 {
		return dist.Discrete{}, fmt.Errorf("markov: conditioning event X_%d=%d has probability zero", cond, condState)
	}
	var xs, ps []float64
	for n, p := range mass {
		if p > 0 {
			xs = append(xs, float64(n+T*wMin))
			ps = append(ps, p/total)
		}
	}
	return dist.FromSorted(xs, ps)
}

// refMsg and refEngine are the historical per-value message passing
// of bayes (mpMsg, mpEngine), read through the network's exported
// accessors: the conditioned node's own atom is restricted to the
// evidence value, and the pass is rooted at it.
type refMsg struct {
	vals  []float64
	width int
	count int
}

type refEngine struct {
	nw         *bayes.Network
	w          []int
	wMin, span int
	cond       int
	condState  int
	varFactors [][]int
}

func (e *refEngine) varMsg(v, from int) refMsg {
	card := e.nw.Card(v)
	m := refMsg{count: 1, width: e.span + 1}
	m.vals = make([]float64, card*m.width)
	for x := 0; x < card; x++ {
		if v == e.cond && x != e.condState {
			continue
		}
		m.vals[x*m.width+e.w[x]-e.wMin] = 1
	}
	for _, g := range e.varFactors[v] {
		if g == from {
			continue
		}
		b := e.factorMsg(g, v)
		out := refMsg{count: m.count + b.count, width: m.width + b.width - 1}
		out.vals = make([]float64, card*out.width)
		for x := 0; x < card; x++ {
			ar := m.vals[x*m.width : (x+1)*m.width]
			br := b.vals[x*b.width : (x+1)*b.width]
			or := out.vals[x*out.width : (x+1)*out.width]
			for i, av := range ar {
				if av == 0 {
					continue
				}
				for j, bv := range br {
					or[i+j] += av * bv
				}
			}
		}
		m = out
	}
	return m
}

func (e *refEngine) factorMsg(f, to int) refMsg {
	scope := append([]int{f}, e.nw.Parents(f)...)
	var others []int
	for _, u := range scope {
		if u != to {
			others = append(others, u)
		}
	}
	msgs := make([]refMsg, len(others))
	count := 0
	for i, u := range others {
		msgs[i] = e.varMsg(u, f)
		count += msgs[i].count
	}
	cardTo := e.nw.Card(to)
	out := refMsg{count: count, width: count*e.span + 1}
	out.vals = make([]float64, cardTo*out.width)
	assign := make([]int, e.nw.N())
	for {
		conv := []float64{1}
		for i, u := range others {
			m := msgs[i]
			row := m.vals[assign[u]*m.width : (assign[u]+1)*m.width]
			next := make([]float64, len(conv)+m.width-1)
			for i2, cv := range conv {
				if cv == 0 {
					continue
				}
				for j, rv := range row {
					next[i2+j] += cv * rv
				}
			}
			conv = next
		}
		for xt := 0; xt < cardTo; xt++ {
			assign[to] = xt
			p := e.nw.CondProb(f, assign[f], assign)
			if p == 0 {
				continue
			}
			row := out.vals[xt*out.width : (xt+1)*out.width]
			for s, v := range conv {
				row[s] += p * v
			}
		}
		i := len(others) - 1
		for ; i >= 0; i-- {
			u := others[i]
			assign[u]++
			if assign[u] < e.nw.Card(u) {
				break
			}
			assign[u] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// refComponents is the historical skeleton-component split: each
// component sorted by discovery, ordered by smallest member.
func refComponents(nw *bayes.Network) [][]int {
	n := nw.N()
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for _, p := range nw.Parents(i) {
			adj[i] = append(adj[i], p)
			adj[p] = append(adj[p], i)
		}
	}
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, u := range adj[v] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// refNetCountDist is the historical bayes.Network.CountDistGiven on a
// validated polytree with uniform cardinality.
func refNetCountDist(nw *bayes.Network, w []int, cond, condState int) (dist.Discrete, error) {
	n := nw.N()
	e := &refEngine{nw: nw, w: w, cond: cond, condState: condState, wMin: w[0]}
	wMax := w[0]
	for _, v := range w[1:] {
		e.wMin = min(e.wMin, v)
		wMax = max(wMax, v)
	}
	e.span = wMax - e.wMin
	e.varFactors = make([][]int, n)
	for f := 0; f < n; f++ {
		e.varFactors[f] = append(e.varFactors[f], f)
		for _, p := range nw.Parents(f) {
			e.varFactors[p] = append(e.varFactors[p], f)
		}
	}
	total := []float64{1}
	for _, comp := range refComponents(nw) {
		rootVar := comp[0]
		inComp := false
		for _, v := range comp {
			if v == cond {
				inComp = true
				break
			}
		}
		if inComp {
			rootVar = cond
		}
		m := e.varMsg(rootVar, -1)
		vec := make([]float64, m.width)
		if inComp {
			copy(vec, m.vals[condState*m.width:(condState+1)*m.width])
		} else {
			for x := 0; x < nw.Card(rootVar); x++ {
				for s, v := range m.vals[x*m.width : (x+1)*m.width] {
					vec[s] += v
				}
			}
		}
		next := make([]float64, len(total)+len(vec)-1)
		for i, tv := range total {
			if tv == 0 {
				continue
			}
			for j, vv := range vec {
				next[i+j] += tv * vv
			}
		}
		total = next
	}
	var mass float64
	for _, v := range total {
		mass += v
	}
	if mass <= 1e-300 {
		return dist.Discrete{}, fmt.Errorf("bayes: conditioning event X_%d=%d has probability zero", cond, condState)
	}
	var xs, ps []float64
	for s, p := range total {
		if p > 0 {
			xs = append(xs, float64(s+n*e.wMin))
			ps = append(ps, p/mass)
		}
	}
	return dist.FromSorted(xs, ps)
}

// randProbRow draws a probability vector of length k; with zeros set,
// each entry is a structural zero with probability 1/4 (one entry
// always stays positive).
func randProbRow(rng *rand.Rand, k int, zeros bool) []float64 {
	row := make([]float64, k)
	keep := rng.IntN(k)
	var sum float64
	for i := range row {
		if zeros && i != keep && rng.IntN(4) == 0 {
			continue
		}
		row[i] = 0.05 + rng.Float64()
		sum += row[i]
	}
	for i := range row {
		row[i] /= sum
	}
	return row
}

// randWeights draws an indicator of a random value, or general integer
// weights in [−3, 3] that need not straddle zero.
func randWeights(rng *rand.Rand, k int) []int {
	w := make([]int, k)
	if rng.IntN(2) == 0 {
		w[rng.IntN(k)] = 1
		return w
	}
	for i := range w {
		w[i] = rng.IntN(7) - 3
	}
	return w
}

func randChainClass(t *testing.T, rng *rand.Rand) markov.Class {
	t.Helper()
	k := 2 + rng.IntN(3)
	T := 1 + rng.IntN(30)
	chains := make([]markov.Chain, 1+rng.IntN(3))
	for i := range chains {
		zeros := rng.IntN(2) == 0
		rows := make([][]float64, k)
		for x := range rows {
			rows[x] = randProbRow(rng, k, zeros)
		}
		c, err := markov.NewFromRows(randProbRow(rng, k, zeros), rows)
		if err != nil {
			t.Fatal(err)
		}
		chains[i] = c
	}
	class, err := markov.NewFinite(chains, T)
	if err != nil {
		t.Fatal(err)
	}
	return class
}

// randPolytree draws an n-node polytree of cardinality k: node i takes
// up to two parents among earlier nodes, from distinct skeleton
// components, so the skeleton stays a forest (often of several
// components).
func randPolytree(t *testing.T, rng *rand.Rand, n, k int) *bayes.Network {
	t.Helper()
	comp := make([]int, n)
	nodes := make([]bayes.Node, n)
	zeros := rng.IntN(2) == 0
	for i := 0; i < n; i++ {
		comp[i] = i
		var parents []int
		for try := rng.IntN(3); try > 0 && i > 0; try-- {
			p := rng.IntN(i)
			ok := true
			for _, q := range parents {
				ok = ok && comp[q] != comp[p]
			}
			if ok {
				parents = append(parents, p)
			}
		}
		rows := 1
		for _, p := range parents {
			rows *= k
			old := comp[p]
			for j := 0; j <= i; j++ {
				if comp[j] == old {
					comp[j] = comp[i]
				}
			}
		}
		cpt := make([]float64, 0, rows*k)
		for r := 0; r < rows; r++ {
			cpt = append(cpt, randProbRow(rng, k, zeros)...)
		}
		nodes[i] = bayes.Node{Card: k, Parents: parents, CPT: cpt}
	}
	nw, err := bayes.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func randNetworkSubstrate(t *testing.T, rng *rand.Rand) *NetworkSubstrate {
	t.Helper()
	n := 1 + rng.IntN(12)
	k := 2 + rng.IntN(3)
	nets := make([]*bayes.Network, 1+rng.IntN(2))
	for i := range nets {
		nets[i] = randPolytree(t, rng, n, k)
	}
	sub, err := NewNetworkSubstrate(nets)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// samePairs reports the first difference between two pair lists,
// comparing every support point and mass by its bits.
func samePairs(got, want []DistributionPair) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, want %d", len(got), len(want))
	}
	sameDist := func(a, b dist.Discrete) bool {
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			ax, ap := a.Atom(i)
			bx, bp := b.Atom(i)
			if math.Float64bits(ax) != math.Float64bits(bx) || math.Float64bits(ap) != math.Float64bits(bp) {
				return false
			}
		}
		return true
	}
	for j := range got {
		switch {
		case got[j].Label != want[j].Label:
			return fmt.Errorf("pair %d label %q, want %q", j, got[j].Label, want[j].Label)
		case !sameDist(got[j].Mu, want[j].Mu):
			return fmt.Errorf("pair %d (%s): µ differs", j, want[j].Label)
		case !sameDist(got[j].Nu, want[j].Nu):
			return fmt.Errorf("pair %d (%s): ν differs", j, want[j].Label)
		}
	}
	return nil
}

// TestConditionalPairsMatchPerSpecPath: on randomized chain classes
// (k 2–4, T 1–30, 1–3 θ, structural-zero transitions, indicator and
// general weights) and randomized polytrees and forests, the pair
// list — order, labels, every support point and mass — equals the
// per-spec reference bit for bit at parallelism 1, 0 and 3.
func TestConditionalPairsMatchPerSpecPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 2017))
	for c := 0; c < 120; c++ {
		var sub Substrate
		if c%2 == 0 {
			sub = NewClassSubstrate(randChainClass(t, rng))
		} else {
			sub = randNetworkSubstrate(t, rng)
		}
		w := randWeights(rng, sub.K())
		want, wantErr := refConditionalPairs(sub, w)
		for _, par := range []int{1, 0, 3} {
			got, err := CountInstance{Substrate: sub, W: w, Parallelism: par}.ConditionalPairs()
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("case %d (%s, w=%v) p=%d: error %v, want %v", c, sub.Kind(), w, par, err, wantErr)
			}
			if diff := samePairs(got, want); diff != nil {
				t.Fatalf("case %d (%s, w=%v) p=%d: %v", c, sub.Kind(), w, par, diff)
			}
		}
	}
}
