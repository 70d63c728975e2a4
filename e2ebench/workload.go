package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"pufferfish/internal/release"
)

// Streams of a workload seed; each request of a stream is generated
// from (seed, stream, index) alone.
const (
	streamPool = iota + 1
	streamWarm
	streamTimed
	streamJournal
	streamFill
)

// The request classes. Every class has a fixed layout and fixed
// parameters; only the data and the noise seed vary with the seed.
var (
	// fresh-data
	freshTree  = &class{name: "tree20-kanto", shape: shapeTree, lengths: []int{20}, k: 3, mech: release.MechKantorovich, eps: "1", cold: "kantorovich.network"}
	freshK51   = &class{name: "k51-exact", shape: shapePower51, lengths: []int{500}, k: 51, mech: release.MechMQMExact, eps: "1", smoothing: "0.5", cold: "core.exact_k51"}
	freshActA  = &class{name: "act4-approx", shape: shapeActivity4, lengths: rep(12, 500), k: 4, mech: release.MechMQMApprox, eps: "1", smoothing: "0.5", cold: "core.mqm_k4"}
	freshActE  = &class{name: "act4-exact", shape: shapeActivity4, lengths: rep(12, 500), k: 4, mech: release.MechMQMExact, eps: "1", smoothing: "0.5", cold: "core.mqm_k4"}
	freshChain = &class{name: "chain3-kanto", shape: shapeChain3, lengths: rep(4, 80), k: 3, mech: release.MechKantorovich, eps: "1", smoothing: "0.5", cold: "kantorovich.chain"}

	// warm-repeat: every class re-releases a pool dataset of its shape.
	warmK51Exact = &class{name: "k51-exact", shape: shapePower51, lengths: []int{4000}, k: 51, mech: release.MechMQMExact, eps: "1", smoothing: "0.5", cold: "core.exact_k51"}
	warmK51DP    = &class{name: "k51-dp", shape: shapePower51, lengths: []int{4000}, k: 51, mech: release.MechDP, eps: "1"}
	warmActA     = &class{name: "act4-approx", shape: shapeActivity4, lengths: rep(24, 500), k: 4, mech: release.MechMQMApprox, eps: "1", smoothing: "0.5", cold: "core.mqm_k4"}
	warmActG     = &class{name: "act4-groupdp", shape: shapeActivity4, lengths: rep(24, 500), k: 4, mech: release.MechGroupDP, eps: "1"}
	warmChain    = &class{name: "chain3-kanto", shape: shapeChain3, lengths: rep(64, 90), k: 3, mech: release.MechKantorovich, eps: "1", smoothing: "0.5", cold: "kantorovich.chain"}
	warmTree     = &class{name: "tree32-kanto", shape: shapeTree, lengths: []int{32}, k: 3, mech: release.MechKantorovich, eps: "1", cold: "kantorovich.network"}

	// accounted-wal
	acctChain = &class{name: "chain3-gauss", shape: shapeChain3, lengths: rep(32, 40), k: 3, mech: release.MechKantorovich, noise: release.NoiseGaussian, eps: "1", delta: "1e-06", smoothing: "0.5", cold: "kantorovich.chain"}
)

func rep(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// slot is one entry of a block's mix: count requests of a single class,
// or count batches whose members take the listed classes in order.
type slot struct {
	count int
	batch []*class
}

// workload is one traffic mix.
type workload struct {
	name string
	// mix is one block; blocks are shuffled per seed and repeated. The
	// class proportions put p50 and p95 each in the middle of one
	// class's rank range, away from the latency jumps between classes.
	mix []slot
	// blocksPerSecond sizes the timed phase: a run of s seconds sends
	// ceil(s·blocksPerSecond) blocks, so every run of a workload does
	// the same work (about s seconds of it on a 2-core VM).
	blocksPerSecond float64
	// poolSize > 0 makes the workload re-release a fixed pool of that
	// many datasets per class shape instead of fresh data.
	poolSize int
	// sessions > 0 charges every release to one of that many named
	// accountant sessions, journaled to a durable WAL.
	sessions int
	// fillsTables makes set-up fill the score cache's bounded set of
	// resident influence tables; see inputs.fill.
	fillsTables bool
}

var workloads = []*workload{
	// Every request carries unseen data, so every score misses the
	// cache and runs a full sweep: the only workload where scoring
	// dominates. p50 falls in tree20, p95 in chain3.
	{
		name: "fresh-data",
		mix: []slot{
			{count: 7, batch: []*class{freshActA}},
			{count: 7, batch: []*class{freshActE}},
			{count: 12, batch: []*class{freshTree}},
			{count: 10, batch: []*class{freshK51}},
			{count: 4, batch: []*class{freshChain}},
		},
		blocksPerSecond: 3.4,
		fillsTables:     true,
	},
	// Re-releases a pool scored in set-up, so every timed score hits and
	// what every request pays anyway (decode, fit, noise, encode)
	// dominates. The cheap classes fill the bottom eighth, k51-exact and
	// the act4 classes (similar latencies) the middle with p50, and
	// batches the top eighth with p95.
	{
		name: "warm-repeat",
		mix: []slot{
			{count: 1, batch: []*class{warmChain}},
			{count: 1, batch: []*class{warmK51DP}},
			{count: 1, batch: []*class{warmTree}},
			{count: 6, batch: []*class{warmK51Exact}},
			{count: 6, batch: []*class{warmActG}},
			{count: 6, batch: []*class{warmActA}},
			{count: 3, batch: []*class{warmK51Exact, warmActA, warmChain, warmTree}},
		},
		blocksPerSecond: 38,
		poolSize:        4,
	},
	// Warm Gaussian releases charged to 16 durable sessions: the write
	// path (ledger check and charge, WAL append and fsync, replay at
	// boot) that no other workload touches.
	{
		name: "accounted-wal",
		mix: []slot{
			{count: 7, batch: []*class{acctChain}},
			{count: 1, batch: []*class{acctChain, acctChain, acctChain, acctChain}},
		},
		blocksPerSecond: 400,
		poolSize:        8,
		sessions:        16,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) blockLen() int {
	n := 0
	for _, s := range w.mix {
		n += s.count
	}
	return n
}

func (w *workload) blocks(seconds float64) int {
	return int(math.Ceil(seconds * w.blocksPerSecond))
}

// classes lists the distinct single-release classes of the mix.
func (w *workload) classes() []*class {
	seen := map[*class]bool{}
	var out []*class
	for _, s := range w.mix {
		for _, c := range s.batch {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// inputs is everything generated from the seed before set-up.
type inputs struct {
	w    *workload
	seed uint64
	// pool holds poolSize datasets per shape (pool workloads only).
	pool map[shape][]*dataset
	// layout is the shuffled slot order of every block.
	layout [][]int
	// fill holds maxFillBlocks blocks of fresh data for the set-up of a
	// fillsTables workload. A fill block is the mix's mqm-exact slots,
	// shuffled: mqm-exact is the only mechanism that leaves resident
	// influence tables, so a filled set holds the mix's share of k=51
	// and k=4 matrices.
	fill [][]*request
}

// maxFillBlocks bounds set-up's fill pass; about 15 fill blocks reach
// the program's present bound of 256 resident matrices.
const maxFillBlocks = 48

func newInputs(w *workload, seed uint64, blocks int) *inputs {
	in := &inputs{w: w, seed: seed}
	if w.poolSize > 0 {
		in.pool = map[shape][]*dataset{}
		rng := streamRNG(seed, streamPool, 0)
		// Shapes in a fixed order, so the pool is seed-deterministic.
		var shapes []shape
		byShape := map[shape]*class{}
		for _, c := range w.classes() {
			if _, ok := byShape[c.shape]; !ok {
				byShape[c.shape] = c
				shapes = append(shapes, c.shape)
			}
		}
		sort.Slice(shapes, func(i, j int) bool { return shapes[i] < shapes[j] })
		for _, sh := range shapes {
			for i := 0; i < w.poolSize; i++ {
				in.pool[sh] = append(in.pool[sh], byShape[sh].gen(rng))
			}
		}
	}
	in.layout = make([][]int, blocks)
	for b := range in.layout {
		var order []int
		for si, s := range w.mix {
			for j := 0; j < s.count; j++ {
				order = append(order, si)
			}
		}
		rng := streamRNG(seed, streamTimed, -1-b)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		in.layout[b] = order
	}
	if w.fillsTables {
		var slots []*class
		for _, s := range w.mix {
			if len(s.batch) == 1 && s.batch[0].mech == release.MechMQMExact {
				for j := 0; j < s.count; j++ {
					slots = append(slots, s.batch[0])
				}
			}
		}
		idx := w.blockLen()
		for b := 0; b < maxFillBlocks; b++ {
			order := append([]*class(nil), slots...)
			rng := streamRNG(seed, streamFill, -1-b)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			var block []*request
			for _, c := range order {
				block = append(block, in.build(idx, []*class{c}, streamRNG(seed, streamFill, idx)))
				idx++
			}
			in.fill = append(in.fill, block)
		}
	}
	return in
}

// timed returns the i-th request of the timed phase.
func (in *inputs) timed(i int) *request {
	bl := in.w.blockLen()
	s := in.w.mix[in.layout[i/bl][i%bl]]
	return in.build(i, s.batch, streamRNG(in.seed, streamTimed, i))
}

func (in *inputs) timedCount() int { return len(in.layout) * in.w.blockLen() }

// warmup returns the fixed part of the set-up pass: for pool workloads
// one cold request per pool dataset and class (each dataset charged or
// scored once); for fresh data one block of the mix on data no timed
// request reuses. Set-up then sends fill blocks, if the inputs have
// them, until the resident influence tables stop growing.
func (in *inputs) warmup() []*request {
	var out []*request
	if in.pool == nil {
		idx := 0
		for _, s := range in.w.mix {
			for j := 0; j < s.count; j++ {
				out = append(out, in.build(idx, s.batch, streamRNG(in.seed, streamWarm, idx)))
				idx++
			}
		}
		return out
	}
	idx := 0
	for _, c := range in.w.classes() {
		for d := 0; d < in.w.poolSize; d++ {
			rng := streamRNG(in.seed, streamWarm, idx)
			m := member{class: c, data: in.pool[c.shape][d], seed: noiseSeed(rng)}
			if in.w.sessions > 0 {
				m.account = sessionName(idx % in.w.sessions)
			}
			out = append(out, &request{idx: idx, members: []member{m}})
			idx++
		}
	}
	return out
}

// build draws one request of the given member classes.
func (in *inputs) build(idx int, classes []*class, rng *rand.Rand) *request {
	r := &request{idx: idx, members: make([]member, len(classes))}
	var accounts []int
	if in.w.sessions > 0 {
		// A batch spans distinct sessions.
		accounts = rng.Perm(in.w.sessions)[:len(classes)]
	}
	for j, c := range classes {
		m := member{class: c}
		if in.pool != nil {
			m.data = in.pool[c.shape][rng.IntN(in.w.poolSize)]
		} else {
			m.data = c.gen(rng)
		}
		m.seed = noiseSeed(rng)
		if accounts != nil {
			m.account = sessionName(accounts[j])
		}
		r.members[j] = m
	}
	return r
}

func sessionName(i int) string { return fmt.Sprintf("acct-%02d", i) }
