package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"
	"testing"

	"pufferfish/internal/activity"
	"pufferfish/internal/markov"
	"pufferfish/internal/power"
	"pufferfish/internal/release"
)

// bodyClass is one request class of the e2ebench workloads: a data
// shape released through one mechanism at fixed parameters. The body
// helpers below render the same layouts, state widths, field order and
// number formats as the benchmark, so tests and Go benchmarks here
// replay its traffic without importing the benchmark module.
type bodyClass struct {
	name    string
	shape   int   // one of the shape* constants
	lengths []int // session lengths (shapeTree: the node count)
	k       int
	mech    string
	noise   string
	// eps, delta and smoothing are rendered verbatim ("" = omitted).
	eps, delta, smoothing string
	accountant            string
}

const (
	shapePower51   = iota // one k=51 household-power session
	shapeChain3           // k=3 sessions from a sticky chain
	shapeActivity4        // k=4 sessions from an activity-cohort chain
	shapeTree             // one observation per node of a random polytree
)

func repeatLen(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

var (
	classAct4GroupDP = &bodyClass{name: "act4-groupdp", shape: shapeActivity4, lengths: repeatLen(24, 500), k: 4, mech: release.MechGroupDP, eps: "1"}
	classAct4Approx  = &bodyClass{name: "act4-approx", shape: shapeActivity4, lengths: repeatLen(24, 500), k: 4, mech: release.MechMQMApprox, eps: "1", smoothing: "0.5"}
	classK51DP       = &bodyClass{name: "k51-dp", shape: shapePower51, lengths: []int{4000}, k: 51, mech: release.MechDP, eps: "1"}
	classK51Exact    = &bodyClass{name: "k51-exact", shape: shapePower51, lengths: []int{4000}, k: 51, mech: release.MechMQMExact, eps: "1", smoothing: "0.5"}
	classChain3Kanto = &bodyClass{name: "chain3-kanto", shape: shapeChain3, lengths: repeatLen(64, 90), k: 3, mech: release.MechKantorovich, eps: "1", smoothing: "0.5"}
	classChain3Gauss = &bodyClass{name: "chain3-gauss", shape: shapeChain3, lengths: repeatLen(32, 40), k: 3, mech: release.MechKantorovich, noise: release.NoiseGaussian, eps: "1", delta: "1e-06", smoothing: "0.5", accountant: "acct-00"}
	classTree32      = &bodyClass{name: "tree32-kanto", shape: shapeTree, lengths: []int{32}, k: 3, mech: release.MechKantorovich, eps: "1"}

	// batch4 is the warm-repeat batch: one member of each scored shape.
	batch4 = []*bodyClass{classK51Exact, classAct4Approx, classChain3Kanto, classTree32}
)

// shapedBody renders a request body whose members take the given
// classes in order (one class: a /v1/release body; more: a batch),
// drawing every dataset and noise seed from seed.
func shapedBody(tb testing.TB, seed uint64, classes ...*bodyClass) []byte {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x5e55))
	var b bytes.Buffer
	if len(classes) > 1 {
		b.WriteString(`{"requests":[`)
	}
	for i, c := range classes {
		if i > 0 {
			b.WriteByte(',')
		}
		c.render(tb, &b, rng)
	}
	if len(classes) > 1 {
		b.WriteString("]}")
	}
	return b.Bytes()
}

func (c *bodyClass) render(tb testing.TB, b *bytes.Buffer, rng *rand.Rand) {
	sessions, network := c.data(tb, rng)
	b.WriteString(`{"sessions":[`)
	for i, s := range sessions {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for j, v := range s {
			if j > 0 {
				b.WriteByte(',')
			}
			if c.k > 10 && v < 10 {
				b.WriteByte(' ') // fixed two-character width, as the benchmark writes
			}
			b.WriteString(strconv.Itoa(v))
		}
		b.WriteByte(']')
	}
	b.WriteString(`],"epsilon":` + c.eps)
	if c.delta != "" {
		b.WriteString(`,"delta":` + c.delta)
	}
	fmt.Fprintf(b, `,"k":%d,"mechanism":%q`, c.k, c.mech)
	if c.noise != "" {
		fmt.Fprintf(b, `,"noise":%q`, c.noise)
	}
	if network != nil {
		b.WriteString(`,"substrate":"network","network":`)
		b.Write(network)
	}
	if c.smoothing != "" {
		b.WriteString(`,"smoothing":` + c.smoothing)
	}
	fmt.Fprintf(b, `,"seed":%d`, 1_000_000_000_000_000+rng.Uint64N(9_000_000_000_000_000))
	if c.accountant != "" {
		fmt.Fprintf(b, `,"accountant":%q`, c.accountant)
	}
	b.WriteByte('}')
}

// data draws one dataset of the class's shape; network is the polytree
// node list for shapeTree and nil otherwise.
func (c *bodyClass) data(tb testing.TB, rng *rand.Rand) (sessions [][]int, network []byte) {
	switch c.shape {
	case shapePower51:
		s, err := power.DefaultHouse().Simulate(c.lengths[0], rng)
		if err != nil {
			tb.Fatal(err)
		}
		return [][]int{s}, nil
	case shapeActivity4:
		ch, err := activity.DefaultProfile(activity.Group(rng.IntN(3))).TrueChain()
		if err != nil {
			tb.Fatal(err)
		}
		return sampleLengths(ch, c.lengths, rng), nil
	case shapeChain3:
		ch, err := markov.NewFromRows([]float64{0.3, 0.3, 0.4}, [][]float64{
			{0.7, 0.2, 0.1},
			{0.15, 0.6, 0.25},
			{0.1, 0.25, 0.65},
		})
		if err != nil {
			tb.Fatal(err)
		}
		return sampleLengths(ch, c.lengths, rng), nil
	default:
		return randomTree(rng, c.lengths[0], c.k)
	}
}

func sampleLengths(ch markov.Chain, lengths []int, rng *rand.Rand) [][]int {
	out := make([][]int, len(lengths))
	for i, T := range lengths {
		out[i] = ch.Sample(T, rng)
	}
	return out
}

// randomTree draws an n-node polytree (node i > 0 has one parent
// below it) with CPT entries written to nine decimals, each row closed
// to one, and one ancestral sample of it as the data.
func randomTree(rng *rand.Rand, n, card int) ([][]int, []byte) {
	var b bytes.Buffer
	obs := make([]int, n)
	b.WriteByte('[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"n%02d","card":%d,`, i, card)
		rows, parent := 1, -1
		if i > 0 {
			rows, parent = card, rng.IntN(i)
			fmt.Fprintf(&b, `"parents":[%2d],`, parent)
		}
		b.WriteString(`"cpt":[`)
		for r := 0; r < rows; r++ {
			var acc int64 // row mass so far, in units of 1e-9
			u := rng.Int64N(1e9)
			for c := 0; c < card; c++ {
				units := 250_000_000 + rng.Int64N(500_000_000/int64(card))
				if c == card-1 {
					units = 1e9 - acc
				}
				if (parent < 0 || r == obs[parent]) && u >= acc && u < acc+units {
					obs[i] = c
				}
				acc += units
				if r > 0 || c > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "0.%09d", units)
			}
		}
		b.WriteString("]}")
	}
	b.WriteByte(']')
	return [][]int{obs}, b.Bytes()
}
