package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pufferfish/internal/activity"
	"pufferfish/internal/markov"
	"pufferfish/internal/matrix"
	"pufferfish/internal/power"
)

// The pinned values below were captured from the chain-specialized
// scorers immediately before the Substrate refactor. They freeze the
// full result — σ, active node, quilt, influence, ℓ, and the
// Wasserstein worst-pair label — at parallelism 1 and N, so any change
// to the scoring pipeline that is not bit-identical fails loudly.

func goldenGridClass() markov.Class {
	return &markov.BinaryInterval{Alpha: 0.2, Beta: 0.45, Len: 40, GridN: 3}
}

func goldenFiniteClass(t *testing.T) markov.Class {
	t.Helper()
	class, err := markov.NewFinite([]markov.Chain{
		markov.MustNew([]float64{0.5, 0.3, 0.2}, matrix.FromRows([][]float64{
			{0.7, 0.2, 0.1}, {0.15, 0.7, 0.15}, {0.1, 0.25, 0.65},
		})),
		markov.MustNew([]float64{0.25, 0.35, 0.4}, matrix.FromRows([][]float64{
			{0.6, 0.3, 0.1}, {0.2, 0.6, 0.2}, {0.05, 0.35, 0.6},
		})),
	}, 25)
	if err != nil {
		t.Fatal(err)
	}
	return class
}

func goldenSingleton(t *testing.T) markov.Class {
	t.Helper()
	class, err := markov.NewSingleton(markov.BinaryChain(0.3, 0.8, 0.6), 12)
	if err != nil {
		t.Fatal(err)
	}
	return class
}

func checkGoldenScore(t *testing.T, name string, got ChainScore, want ChainScore) {
	t.Helper()
	if got != want {
		t.Errorf("%s: score drifted from pre-refactor golden:\n got  %+v\n want %+v", name, got, want)
	}
}

func TestGoldenScoresEveryParallelism(t *testing.T) {
	grid := goldenGridClass()
	finite := goldenFiniteClass(t)
	single := goldenSingleton(t)
	for _, par := range []int{1, 0} {
		s, err := ExactScore(grid, 1.2, ExactOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("ExactScore(grid) p=%d: %v", par, err)
		}
		checkGoldenScore(t, "ExactScore(grid)", s, ChainScore{
			Sigma: 10.81303224430358, Node: 8, Quilt: ChainQuilt{A: 5, B: 5},
			Influence: 0.36767102911939475, Ell: 20,
		})

		s, err = ExactScore(finite, 0.9, ExactOptions{MaxWidth: 6, Parallelism: par})
		if err != nil {
			t.Fatalf("ExactScore(finite) p=%d: %v", par, err)
		}
		checkGoldenScore(t, "ExactScore(finite, width 6)", s, ChainScore{
			Sigma: 27.777777777777779, Node: 5, Quilt: ChainQuilt{}, Influence: 0, Ell: 6,
		})

		s, err = ExactScore(finite, 0.9, ExactOptions{ForceFullSweep: true, Parallelism: par})
		if err != nil {
			t.Fatalf("ExactScore(finite, full) p=%d: %v", par, err)
		}
		checkGoldenScore(t, "ExactScore(finite, full sweep)", s, ChainScore{
			Sigma: 17.466682011033978, Node: 17, Quilt: ChainQuilt{A: 6, B: 7},
			Influence: 0.21297770278182138, Ell: 25,
		})

		s, err = ApproxScore(grid, 1.2, ApproxOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("ApproxScore(grid) p=%d: %v", par, err)
		}
		checkGoldenScore(t, "ApproxScore(grid)", s, ChainScore{
			Sigma: 20.103989689585074, Node: 20, Quilt: ChainQuilt{A: 11, B: 9},
			Influence: 0.25491396019552265, Ell: 40,
		})

		w, worst, err := WassersteinScaleOpt(
			ChainCountInstance{Class: single, W: []int{0, 1}, Parallelism: par},
			WassersteinOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("WassersteinScaleOpt p=%d: %v", par, err)
		}
		if w != 3 || worst.Label != "X2: 0 vs 1 @ θ1" {
			t.Errorf("WassersteinScaleOpt p=%d drifted: w=%v label=%q, want w=3 label=%q",
				par, w, worst.Label, "X2: 0 vs 1 @ θ1")
		}
	}
}

// freshK51Class is a fitted k=51 model of pufferd's fresh-data shape: a
// simulated household power series of length T, fitted stationary with
// smoothing 0.5 and scored at its own length.
func freshK51Class(t testing.TB, seed uint64, T int) markov.Class {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	series, err := power.DefaultHouse().Simulate(T, rng)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := power.EmpiricalChain(series, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	class, err := markov.NewSingleton(chain, T)
	if err != nil {
		t.Fatal(err)
	}
	return class
}

// goldenBits is a pinned ChainScore with σ and the influence as IEEE
// bit patterns.
type goldenBits struct {
	sigma, infl uint64
	node, a, b  int
	ell         int
}

func checkGoldenBits(t *testing.T, name string, got ChainScore, want goldenBits) {
	t.Helper()
	if math.Float64bits(got.Sigma) != want.sigma || math.Float64bits(got.Influence) != want.infl ||
		got.Node != want.node || got.Quilt != (ChainQuilt{A: want.a, B: want.b}) || got.Ell != want.ell {
		t.Errorf("%s drifted:\n got  σ=%v (%#x) node %d quilt %+v infl %v (%#x) ℓ %d\n want σ=%v (%#x) node %d quilt {A:%d B:%d} infl %v (%#x) ℓ %d",
			name, got.Sigma, math.Float64bits(got.Sigma), got.Node, got.Quilt, got.Influence, math.Float64bits(got.Influence), got.Ell,
			math.Float64frombits(want.sigma), want.sigma, want.node, want.a, want.b, math.Float64frombits(want.infl), want.infl, want.ell)
	}
}

// TestGoldenWideQuiltScores pins, from the scorer as it stood before
// influence rows were built on demand, the full score of classes whose
// active quilt reads well past the stationary shortcut's first 16 rows
// (ε·σ from 20 to 152): fresh-shaped k=51 models at three ε, the
// T=10,000 ExactScorePower51 bench model, and a k=4 activity
// ExactScoreMulti over 12 sessions of length 500.
func TestGoldenWideQuiltScores(t *testing.T) {
	fresh := [3][3]goldenBits{ // [model][ε = 0.5, 1, 2]
		{
			{0x40558fb970e23694, 0x3fb81c5a6b6e4110, 250, 18, 18, 87},
			{0x40424f084228a19d, 0x3fcaa0a65335fc80, 250, 15, 15, 79},
			{0x402dabec3d73a047, 0x3fe2b4414777f58c, 250, 11, 11, 71},
		},
		{
			{0x40518c0755e67359, 0x3fb63a1324ab08e0, 250, 15, 15, 77},
			{0x403d8cc8239e16ac, 0x3fcc5f3c16ee7fe0, 250, 12, 12, 70},
			{0x402790fabe4feb33, 0x3fe1d51a26fd8bac, 250, 9, 9, 63},
		},
		{
			{0x404cb696841cfd95, 0x3fb502d161df1040, 250, 12, 13, 64},
			{0x4038b079983c129e, 0x3fc84fc45f7ac790, 250, 10, 11, 59},
			{0x4024627b81ad4dda, 0x3fe0e7e5b988081c, 250, 8, 8, 53},
		},
	}
	rng := rand.New(rand.NewPCG(41, 42))
	series, err := power.DefaultHouse().Simulate(10_000, rng)
	if err != nil {
		t.Fatal(err)
	}
	powChain, err := power.EmpiricalChain(series, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	powClass, err := markov.NewSingleton(powChain, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := activity.DefaultProfile(activity.Cyclists).TrueChain()
	if err != nil {
		t.Fatal(err)
	}
	arng := rand.New(rand.NewPCG(71, 72))
	var sessions [][]int
	lengths := make([]int, 12)
	for i := range lengths {
		lengths[i] = 500
		sessions = append(sessions, truth.Sample(500, arng))
	}
	actChain, err := markov.EstimateStationary(sessions, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	actClass, err := markov.NewSingleton(actChain, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 0} {
		for m, seed := range []uint64{61, 62, 63} {
			class := freshK51Class(t, seed, 500)
			for e, eps := range []float64{0.5, 1, 2} {
				s, err := ExactScore(class, eps, ExactOptions{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				checkGoldenBits(t, fmt.Sprintf("fresh k51 #%d ε=%g p=%d", m, eps, par), s, fresh[m][e])
			}
		}
		s, err := ExactScore(powClass, 1, ExactOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		checkGoldenBits(t, fmt.Sprintf("ExactScorePower51 p=%d", par), s,
			goldenBits{0x4054db7bf91565a7, 0x3fcc46673e7d5b60, 5000, 33, 33, 215})
		s, err = ExactScoreMulti(actClass, 1, ExactOptions{Parallelism: par}, lengths)
		if err != nil {
			t.Fatal(err)
		}
		checkGoldenBits(t, fmt.Sprintf("activity k4 multi p=%d", par), s,
			goldenBits{0x40630894c7a5e446, 0x3fcb2015dd777298, 250, 61, 60, 188})
	}
}
