package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"

	"pufferfish/internal/activity"
	"pufferfish/internal/markov"
	"pufferfish/internal/power"
	"pufferfish/internal/release"
)

// dataset is one generated input in compact form: states fit in a
// byte (k ≤ 51), and a network is kept as the JSON the request carries.
type dataset struct {
	sessions [][]uint8
	network  []byte // polytree node list (nil for chain data)
}

// ints widens the sessions for the in-process pipeline.
func (d *dataset) ints() [][]int {
	out := make([][]int, len(d.sessions))
	for i, s := range d.sessions {
		row := make([]int, len(s))
		for j, v := range s {
			row[j] = int(v)
		}
		out[i] = row
	}
	return out
}

// shape names a data generator. Every shape has a fixed session-length
// layout, so two seeds give bodies of identical byte size.
type shape int

const (
	shapePower51   shape = iota // one k=51 household-power session
	shapeChain3                 // k=3 sessions from a random sticky chain
	shapeActivity4              // k=4 sessions from an activity-cohort chain
	shapeTree                   // one observation per node of a random polytree
)

// class is one request class of a workload: a data shape released
// through one mechanism at fixed parameters.
type class struct {
	name    string
	shape   shape
	lengths []int // session lengths (shapeTree: one entry, the node count)
	k       int
	mech    string
	noise   string
	// eps, delta and smoothing are rendered verbatim ("" = omitted), so
	// bodies are byte-stable.
	eps, delta, smoothing string
	// cold is the trace layer a cache-missing score of this class is
	// recorded under.
	cold string
}

func (c *class) substrate() string {
	if c.shape == shapeTree {
		return release.SubstrateNetwork
	}
	return ""
}

// gen draws one dataset of the class's shape.
func (c *class) gen(rng *rand.Rand) *dataset {
	switch c.shape {
	case shapePower51:
		s, err := power.DefaultHouse().Simulate(c.lengths[0], rng)
		if err != nil {
			panic(err) // DefaultHouse validates; only a bug reaches here
		}
		return &dataset{sessions: [][]uint8{narrow(s)}}
	case shapeChain3:
		return &dataset{sessions: sampleSessions(stickyChain(rng, c.k), c.lengths, rng)}
	case shapeActivity4:
		group := activity.Group(rng.IntN(3))
		truth, err := activity.DefaultProfile(group).TrueChain()
		if err != nil {
			panic(err)
		}
		return &dataset{sessions: sampleSessions(truth, c.lengths, rng)}
	default:
		return genTree(rng, c.lengths[0], c.k)
	}
}

func narrow(s []int) []uint8 {
	out := make([]uint8, len(s))
	for i, v := range s {
		out[i] = uint8(v)
	}
	return out
}

func sampleSessions(ch markov.Chain, lengths []int, rng *rand.Rand) [][]uint8 {
	out := make([][]uint8, len(lengths))
	for i, T := range lengths {
		out[i] = narrow(ch.Sample(T, rng))
	}
	return out
}

// stickyChain draws a k-state chain whose rows put 0.5–0.8 on staying,
// started uniformly.
func stickyChain(rng *rand.Rand, k int) markov.Chain {
	rows := make([][]float64, k)
	init := make([]float64, k)
	for x := range rows {
		init[x] = 1 / float64(k)
		rows[x] = make([]float64, k)
		stay := 0.5 + 0.3*rng.Float64()
		var rest float64
		for y := range rows[x] {
			if y != x {
				rows[x][y] = 0.2 + rng.Float64()
				rest += rows[x][y]
			}
		}
		for y := range rows[x] {
			if y == x {
				rows[x][y] = stay
			} else {
				rows[x][y] *= (1 - stay) / rest
			}
		}
	}
	ch, err := markov.NewFromRows(init, rows)
	if err != nil {
		panic(err)
	}
	return ch
}

// genTree draws an n-node polytree (node i > 0 has one parent below
// it) with random CPTs, and one ancestral sample of it as the data.
// CPT entries are written with nine decimals and each row's last entry
// closes the row to one, so the JSON is fixed-width and exact.
func genTree(rng *rand.Rand, n, card int) *dataset {
	parents := make([]int, n)
	cpts := make([][]float64, n)
	var b bytes.Buffer
	b.WriteByte('[')
	for i := 0; i < n; i++ {
		rows := card
		parents[i] = -1
		if i == 0 {
			rows = 1
		} else {
			parents[i] = rng.IntN(i)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"n%02d","card":%d,`, i, card)
		if parents[i] >= 0 {
			fmt.Fprintf(&b, `"parents":[%2d],`, parents[i])
		}
		b.WriteString(`"cpt":[`)
		cpt := make([]float64, 0, rows*card)
		for r := 0; r < rows; r++ {
			w := make([]float64, card)
			var sum float64
			for c := range w {
				w[c] = 0.25 + rng.Float64()
				sum += w[c]
			}
			var acc int64 // row mass so far, in units of 1e-9
			for c := range w {
				units := int64(w[c] / sum * 1e9)
				if c == card-1 {
					units = 1e9 - acc
				}
				acc += units
				if r > 0 || c > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "0.%09d", units)
				cpt = append(cpt, float64(units)/1e9)
			}
		}
		b.WriteString("]}")
		cpts[i] = cpt
	}
	b.WriteByte(']')
	// Ancestral sampling in index order: every parent precedes its child.
	obs := make([]uint8, n)
	for i := 0; i < n; i++ {
		row := 0
		if parents[i] >= 0 {
			row = int(obs[parents[i]])
		}
		u := rng.Float64()
		v := card - 1
		for c := 0; c < card; c++ {
			if u -= cpts[i][row*card+c]; u < 0 {
				v = c
				break
			}
		}
		obs[i] = uint8(v)
	}
	return &dataset{sessions: [][]uint8{obs}, network: b.Bytes()}
}

// member is one release inside a request.
type member struct {
	class   *class
	data    *dataset
	seed    uint64 // noise seed, 16 decimal digits
	account string // accountant session ("" = unaccounted)
}

// request is one HTTP request: a single release, or a batch when it
// has more than one member.
type request struct {
	idx     int
	members []member
}

func (r *request) path() string {
	if len(r.members) > 1 {
		return "/v1/release/batch"
	}
	return "/v1/release"
}

// className labels the request for per-class reporting.
func (r *request) className() string {
	if len(r.members) > 1 {
		return fmt.Sprintf("batch%d", len(r.members))
	}
	return r.members[0].class.name
}

// noiseSeed maps a draw onto a fixed-width 16-digit seed.
func noiseSeed(rng *rand.Rand) uint64 {
	return 1_000_000_000_000_000 + rng.Uint64N(9_000_000_000_000_000)
}

// streamRNG derives the generator of one named stream of a workload
// seed, so any request can be regenerated on its own.
func streamRNG(seed uint64, stream, idx int) *rand.Rand {
	return rand.New(rand.NewPCG(seed^0x5eed_0ff5_e7b1_a5e5, uint64(stream)<<40|uint64(idx)))
}

// render writes the request body. Field order and number widths are
// fixed, so the body size depends on the class layout only.
func (r *request) render(b *bytes.Buffer) {
	b.Reset()
	if len(r.members) == 1 {
		r.members[0].render(b)
		return
	}
	b.WriteString(`{"requests":[`)
	for i := range r.members {
		if i > 0 {
			b.WriteByte(',')
		}
		r.members[i].render(b)
	}
	b.WriteString("]}")
}

func (m *member) render(b *bytes.Buffer) {
	c := m.class
	width := 1
	if c.k > 10 {
		width = 2
	}
	b.WriteString(`{"sessions":[`)
	for i, s := range m.data.sessions {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for j, v := range s {
			if j > 0 {
				b.WriteByte(',')
			}
			if width == 2 && v < 10 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(int(v)))
		}
		b.WriteByte(']')
	}
	b.WriteString(`],"epsilon":`)
	b.WriteString(c.eps)
	if c.delta != "" {
		b.WriteString(`,"delta":`)
		b.WriteString(c.delta)
	}
	fmt.Fprintf(b, `,"k":%d,"mechanism":%q`, c.k, c.mech)
	if c.noise != "" {
		fmt.Fprintf(b, `,"noise":%q`, c.noise)
	}
	if m.data.network != nil {
		b.WriteString(`,"substrate":"network","network":`)
		b.Write(m.data.network)
	}
	if c.smoothing != "" {
		b.WriteString(`,"smoothing":`)
		b.WriteString(c.smoothing)
	}
	fmt.Fprintf(b, `,"seed":%d`, m.seed)
	if m.account != "" {
		fmt.Fprintf(b, `,"accountant":%q`, m.account)
	}
	b.WriteByte('}')
}

// config is the release.Config the server derives from the member's
// body (network excluded: the caller parses it, as the server does).
func (m *member) config() release.Config {
	c := m.class
	return release.Config{
		Epsilon:   mustFloat(c.eps),
		Delta:     mustFloat(c.delta),
		K:         c.k,
		Mechanism: c.mech,
		Noise:     c.noise,
		Substrate: c.substrate(),
		Smoothing: mustFloat(c.smoothing),
		Seed:      m.seed,
	}
}

func mustFloat(s string) float64 {
	if s == "" {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(err)
	}
	return v
}
