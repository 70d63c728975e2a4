package kantorovich

import (
	"testing"

	"pufferfish/internal/bayes"
	"pufferfish/internal/core"
	"pufferfish/internal/markov"
)

// Pinned immediately before the Substrate refactor: the Kantorovich
// score and worst-cell transport profile of a fixed singleton class,
// at parallelism 1 and N. Any non-bit-identical change to the pair
// enumeration, the dynamic programs, or the distance sweeps fails here.
func TestGoldenKantorovichEveryParallelism(t *testing.T) {
	class, err := markov.NewSingleton(markov.BinaryChain(0.3, 0.8, 0.6), 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 0} {
		s, err := Score(nil, class, 0.7, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("Score p=%d: %v", par, err)
		}
		want := core.ChainScore{Sigma: 8.5714285714285712, Node: 0, Influence: 2.337963037304668}
		if s != want {
			t.Errorf("Score p=%d drifted from pre-refactor golden:\n got  %+v\n want %+v", par, s, want)
		}
		p, err := CellProfile(nil, class, 0, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("CellProfile p=%d: %v", par, err)
		}
		wantCell := core.CellScore{WInf: 3, W1: 2.337963037304668, Label: "X2: 0 vs 1 @ θ1", Pairs: 12}
		if p != wantCell {
			t.Errorf("CellProfile p=%d drifted from pre-refactor golden:\n got  %+v\n want %+v", par, p, wantCell)
		}
	}
}

// k3Chains are the k=3 models of the shared-value goldens: with three
// states every conditional distribution X_i = v serves two secret
// pairs, so a change that computes them differently for different
// pairs shows here and cannot show on the binary golden above. The
// second chain has a structural-zero transition.
func k3Chains(t *testing.T) (markov.Chain, markov.Chain) {
	t.Helper()
	a, err := markov.NewFromRows([]float64{0.5, 0.3, 0.2}, [][]float64{
		{0.6, 0.3, 0.1},
		{0.2, 0.5, 0.3},
		{0.25, 0.25, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := markov.NewFromRows([]float64{0.2, 0.2, 0.6}, [][]float64{
		{0.7, 0, 0.3},
		{0.1, 0.8, 0.1},
		{0.4, 0.4, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// k3Polytree is an 8-node k=3 polytree with three roots and two
// two-parent nodes (3 ← {0, 1}, 6 ← {4, 5}); forest adds a second, disconnected
// component so the count distribution convolves two independent sums.
func k3Polytree(t *testing.T, forest bool) *bayes.Network {
	t.Helper()
	root := []float64{0.5, 0.3, 0.2}
	one := []float64{ // P(child | parent), one row per parent value
		0.7, 0.2, 0.1,
		0.15, 0.6, 0.25,
		0.3, 0.3, 0.4,
	}
	two := make([]float64, 0, 27) // P(child | p1, p2), p2 fastest
	for p1 := 0; p1 < 3; p1++ {
		for p2 := 0; p2 < 3; p2++ {
			hi := 0.4 + 0.05*float64(p1+p2)
			two = append(two, hi, (1-hi)*0.75, (1-hi)*0.25)
		}
	}
	nodes := []bayes.Node{
		{Card: 3, CPT: root},
		{Card: 3, CPT: []float64{0.2, 0.3, 0.5}},
		{Card: 3, Parents: []int{0}, CPT: one},
		{Card: 3, Parents: []int{0, 1}, CPT: two},
		{Card: 3, Parents: []int{3}, CPT: one},
		{Card: 3, CPT: []float64{0.6, 0.1, 0.3}},
		{Card: 3, Parents: []int{4, 5}, CPT: two},
		{Card: 3, Parents: []int{6}, CPT: one},
	}
	if forest {
		nodes = append(nodes,
			bayes.Node{Card: 3, CPT: []float64{0.1, 0.1, 0.8}},
			bayes.Node{Card: 3, Parents: []int{8}, CPT: one},
			bayes.Node{Card: 3, Parents: []int{8}, CPT: []float64{
				0.9, 0.05, 0.05,
				0, 0.5, 0.5,
				0.2, 0.2, 0.6,
			}},
		)
	}
	nw, err := bayes.New(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// Pinned on the code that computed each (θ, position, value)
// distribution once per secret pair, before the batched conditional
// count distributions: the score and every cell's profile (the worst
// cell's included) of a k=3 chain, a two-θ class, a polytree and a
// forest, at parallelism 1 and N. Any non-bit-identical change to the dedupe, the shared-
// prefix dynamic programs or the one-pass message passing fails here.
func TestGoldenKantorovichSharedValues(t *testing.T) {
	a, b := k3Chains(t)
	single, err := markov.NewSingleton(a, 15)
	if err != nil {
		t.Fatal(err)
	}
	finite, err := markov.NewFinite([]markov.Chain{a, b}, 12)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.NewNetworkSubstrate([]*bayes.Network{k3Polytree(t, false)})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := core.NewNetworkSubstrate([]*bayes.Network{k3Polytree(t, true)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		sub   core.Substrate
		score core.ChainScore
		cells []core.CellScore // every cell's profile; score.Node names the worst
	}{
		{"k3-singleton", core.NewClassSubstrate(single),
			core.ChainScore{Sigma: 10, Node: 0, Influence: 2.3189076033056177},
			[]core.CellScore{
				{WInf: 3, W1: 2.3189076033056177, Label: "X2: 0 vs 2 @ θ1", Pairs: 45},
				{WInf: 2, W1: 1.6585795705593935, Label: "X1: 0 vs 1 @ θ1", Pairs: 45},
				{WInf: 3, W1: 2.060543779491272, Label: "X2: 0 vs 2 @ θ1", Pairs: 45},
			}},
		{"k3-finite-2theta", core.NewClassSubstrate(finite),
			core.ChainScore{Sigma: 20, Node: 0, Influence: 4.663854499999999},
			[]core.CellScore{
				{WInf: 6, W1: 4.663854499999999, Label: "X6: 0 vs 1 @ θ2", Pairs: 72},
				{WInf: 6, W1: 5.218474499999998, Label: "X3: 0 vs 1 @ θ2", Pairs: 72},
				{WInf: 3, W1: 2.057792985336801, Label: "X2: 0 vs 2 @ θ1", Pairs: 72},
			}},
		{"k3-polytree", tree,
			core.ChainScore{Sigma: 6.666666666666666, Node: 0, Influence: 1.4770218749999997},
			[]core.CellScore{
				{WInf: 2, W1: 1.4770218749999997, Label: "X1: 0 vs 1 @ θ1", Pairs: 24},
				{WInf: 2, W1: 1.475135127811967, Label: "X1: 0 vs 1 @ θ1", Pairs: 24},
				{WInf: 2, W1: 1.2577812500000003, Label: "X1: 0 vs 2 @ θ1", Pairs: 24},
			}},
		{"k3-forest", forest,
			core.ChainScore{Sigma: 10, Node: 0, Influence: 2.4500000000000006},
			[]core.CellScore{
				{WInf: 3, W1: 2.4500000000000006, Label: "X9: 0 vs 1 @ θ1", Pairs: 33},
				{WInf: 2, W1: 1.849999999999999, Label: "X1: 0 vs 1 @ θ1", Pairs: 33},
				{WInf: 3, W1: 1.850000000000004, Label: "X9: 0 vs 2 @ θ1", Pairs: 33},
			}},
	}
	for _, c := range cases {
		for _, par := range []int{1, 0} {
			s, err := ScoreSubstrate(nil, c.sub, 0.9, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%s p=%d: Score: %v", c.name, par, err)
			}
			if s != c.score {
				t.Errorf("%s p=%d: Score drifted from golden:\n got  %#v\n want %#v", c.name, par, s, c.score)
			}
			for cell := 0; cell < c.sub.K(); cell++ {
				p, err := CellProfileSubstrate(nil, c.sub, cell, Options{Parallelism: par})
				if err != nil {
					t.Fatalf("%s p=%d cell %d: CellProfile: %v", c.name, par, cell, err)
				}
				if cell >= len(c.cells) || p != c.cells[cell] {
					t.Errorf("%s p=%d cell %d: profile drifted from golden:\n got  %#v", c.name, par, cell, p)
				}
			}
		}
	}
}
