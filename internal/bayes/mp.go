package bayes

import (
	"errors"
	"fmt"
	"slices"

	"pufferfish/internal/dist"
	"pufferfish/internal/sched"
)

// ErrNotPolytree marks networks whose undirected skeleton contains a
// cycle: the exact message-passing routines below are only correct on
// polytrees (directed graphs whose skeleton is a forest), so they
// refuse such inputs instead of returning silently wrong numbers.
// Loopy networks remain serviceable through the enumeration routines
// (Marginal, MaxInfluence), which are exact on any DAG.
var ErrNotPolytree = errors.New("bayes: network is not a polytree")

// Polytree reports whether the network is a polytree — its undirected
// skeleton (one edge per parent-child arc) is a forest. It returns nil
// for polytrees and an ErrNotPolytree-wrapped error naming the arc
// that closes a cycle otherwise.
func (nw *Network) Polytree() error {
	n := len(nw.nodes)
	root := make([]int, n)
	for i := range root {
		root[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for root[x] != x {
			root[x] = root[root[x]]
			x = root[x]
		}
		return x
	}
	for i, nd := range nw.nodes {
		for _, p := range nd.Parents {
			ri, rp := find(i), find(p)
			if ri == rp {
				return fmt.Errorf("%w: arc %d→%d closes an undirected cycle", ErrNotPolytree, p, i)
			}
			root[ri] = rp
		}
	}
	return nil
}

// components groups the nodes into skeleton-connected components,
// each sorted ascending, ordered by smallest member.
func (nw *Network) components() [][]int {
	n := len(nw.nodes)
	adj := make([][]int, n)
	for i, nd := range nw.nodes {
		for _, p := range nd.Parents {
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

// mpMsg is one sum-augmented message of the factor-graph belief
// propagation: vals[x*width + s] is the joint probability mass of the
// message's subtree taking an assignment consistent with the message
// variable at value x whose weight sum over the subtree's count
// variables is s + count·wMin. Marginal queries (no weights) use
// width 1 and count 0 throughout, so one engine serves both.
type mpMsg struct {
	vals  []float64
	width int
	count int
}

// mpEngine runs exact belief propagation on the factor graph of a
// polytree (one factor per node, scope {node} ∪ parents; the factor
// graph of a polytree is a tree, so a single inward pass per query is
// exact). Message order is deterministic — factors ascending, scope in
// (node, parents...) order — so results are bit-identical run to run.
//
// The engine carries no evidence: the messages into a node do not
// depend on its value, so one pass rooted at the node yields the
// joint of every value at once (row x of the root message), and
// conditioning on X_v = x reads row x.
//
// An engine is read-only once built, so concurrent passes may share it.
type mpEngine struct {
	nw         *Network
	w          []int   // nil for marginal queries
	wMin, span int     // weight range (span = wMax − wMin; 0 when w == nil)
	varFactors [][]int // variable → factors whose scope contains it
	comps      [][]int // the network's skeleton components
}

func newMPEngine(nw *Network, w []int) *mpEngine {
	e := &mpEngine{nw: nw, w: w}
	if w != nil {
		e.wMin = w[0]
		wMax := w[0]
		for _, v := range w[1:] {
			if v < e.wMin {
				e.wMin = v
			}
			if v > wMax {
				wMax = v
			}
		}
		e.span = wMax - e.wMin
	}
	n := nw.N()
	e.varFactors = make([][]int, n)
	for f, nd := range nw.nodes {
		e.varFactors[f] = append(e.varFactors[f], f)
		for _, p := range nd.Parents {
			e.varFactors[p] = append(e.varFactors[p], f)
		}
	}
	e.comps = nw.components()
	return e
}

// width is the s-axis length of a message covering count weighted
// variables.
func (e *mpEngine) width(count int) int { return count*e.span + 1 }

// varMsg returns µ_{v→from}: v's own weight atom combined (by
// convolution over the sum axis) with the messages of every adjacent
// factor except from. from = −1 reads the root message.
func (e *mpEngine) varMsg(v, from int) mpMsg {
	card := e.nw.nodes[v].Card
	count := 0
	if e.w != nil {
		count = 1
	}
	m := mpMsg{count: count, width: e.width(count)}
	m.vals = make([]float64, card*m.width)
	for x := 0; x < card; x++ {
		s := 0
		if e.w != nil {
			s = e.w[x] - e.wMin
		}
		m.vals[x*m.width+s] = 1
	}
	for _, g := range e.varFactors[v] {
		if g == from {
			continue
		}
		m = mulConv(m, e.factorMsg(g, v), card)
	}
	return m
}

// mulConv multiplies two messages over the same variable: pointwise in
// x, convolution along the sum axis.
func mulConv(a, b mpMsg, card int) mpMsg {
	out := mpMsg{count: a.count + b.count, width: a.width + b.width - 1}
	out.vals = make([]float64, card*out.width)
	for x := 0; x < card; x++ {
		ar := a.vals[x*a.width : (x+1)*a.width]
		br := b.vals[x*b.width : (x+1)*b.width]
		or := out.vals[x*out.width : (x+1)*out.width]
		for i, av := range ar {
			//privlint:allow floatcompare structural-zero sparsity skip; only exact zeros carry no mass
			if av == 0 {
				continue
			}
			for j, bv := range br {
				or[i+j] += av * bv
			}
		}
	}
	return out
}

// factorMsg returns µ_{f→to}: the factor's CPT folded with the
// messages of its other scope variables, enumerated jointly (scope
// sizes are 1 + parent count — small on the tree-structured networks
// this targets).
func (e *mpEngine) factorMsg(f, to int) mpMsg {
	nd := e.nw.nodes[f]
	// The scope is (f, parents...); val[i] is scope[i]'s value in the
	// joint enumeration, and others lists the scope indices of every
	// variable but to.
	scope := append(make([]int, 0, 1+len(nd.Parents)), f)
	scope = append(scope, nd.Parents...)
	val := make([]int, len(scope))
	toAt := 0
	others := make([]int, 0, len(scope))
	for i, u := range scope {
		if u == to {
			toAt = i
		} else {
			others = append(others, i)
		}
	}
	msgs := make([]mpMsg, len(others))
	count := 0
	for i, at := range others {
		msgs[i] = e.varMsg(scope[at], f)
		count += msgs[i].count
	}
	cardTo := e.nw.nodes[to].Card
	out := mpMsg{count: count, width: e.width(count)}
	out.vals = make([]float64, cardTo*out.width)
	// Two scratch rows for the running convolution, each as wide as
	// the result.
	scratch := make([]float64, 2*out.width)
	for {
		// Convolve the selected rows of the other variables' messages.
		cur, spare := scratch[:out.width], scratch[out.width:]
		conv := cur[:1]
		conv[0] = 1
		for i, at := range others {
			m := msgs[i]
			row := m.vals[val[at]*m.width : (val[at]+1)*m.width]
			next := spare[:len(conv)+m.width-1]
			clear(next)
			for i2, cv := range conv {
				//privlint:allow floatcompare structural-zero sparsity skip
				if cv == 0 {
					continue
				}
				for j, rv := range row {
					next[i2+j] += cv * rv
				}
			}
			conv = next
			cur, spare = spare, cur
		}
		for xt := 0; xt < cardTo; xt++ {
			val[toAt] = xt
			cptRow := 0 // the parents' row-major index, as in CondProb
			for i, p := range nd.Parents {
				cptRow = cptRow*e.nw.nodes[p].Card + val[1+i]
			}
			p := nd.CPT[cptRow*nd.Card+val[0]]
			//privlint:allow floatcompare exact-zero conditional probability contributes nothing
			if p == 0 {
				continue
			}
			row := out.vals[xt*out.width : (xt+1)*out.width]
			for s, v := range conv {
				row[s] += p * v
			}
		}
		// Mixed-radix increment over the other variables.
		i := len(others) - 1
		for ; i >= 0; i-- {
			at := others[i]
			val[at]++
			if val[at] < e.nw.nodes[scope[at]].Card {
				break
			}
			val[at] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// MarginalsMP returns every node's marginal distribution, computed
// exactly by message passing — O(n) messages per node instead of the
// exponential joint enumeration of NodeMarginal, so it scales to
// polytrees far past maxJointSize. Non-polytree networks return
// ErrNotPolytree.
func (nw *Network) MarginalsMP() ([][]float64, error) {
	if err := nw.Polytree(); err != nil {
		return nil, err
	}
	out := make([][]float64, nw.N())
	e := newMPEngine(nw, nil)
	for j := range nw.nodes {
		m := e.varMsg(j, -1)
		row := make([]float64, nw.nodes[j].Card)
		var total float64
		for x := range row {
			row[x] = m.vals[x]
			total += row[x]
		}
		for x := range row {
			row[x] /= total
		}
		out[j] = row
	}
	return out, nil
}

// CountDist returns the exact distribution of N = Σ_i w[X_i] over the
// network's nodes, by sum-augmented message passing (polytrees only).
func (nw *Network) CountDist(w []int) (dist.Discrete, error) {
	return nw.CountDistGiven(w, -1, 0)
}

// CountDistGiven returns the exact distribution of N = Σ_i w[X_i]
// conditioned on X_cond = condState, where cond is a 0-based node
// index; cond == −1 means no conditioning. All nodes must share one
// cardinality (the count query's weight vector indexes values), the
// network must be a polytree (ErrNotPolytree otherwise), and a
// zero-probability conditioning event is an error.
//
// This is the distribution oracle the network Substrate feeds to the
// count-distribution → W∞ → noise pipeline: the polytree analogue of
// markov.Chain.CountDistGiven, running in O(n · card^(maxParents+1) ·
// range²) instead of joint enumeration. It is CountDists on a single
// query.
func (nw *Network) CountDistGiven(w []int, cond, condState int) (dist.Discrete, error) {
	ds, err := CountDists([]*Network{nw}, w, []CountQuery{{Cond: cond, State: condState}}, 1)
	if err != nil {
		return dist.Discrete{}, err
	}
	return ds[0], nil
}

// CountQuery names one distribution for CountDists: N = Σ_i w[X_i]
// under nets[Net], given X_Cond = State. Cond is a 0-based node index;
// −1 means no conditioning.
type CountQuery struct{ Net, Cond, State int }

// CountDists returns the exact distribution of N = Σ_i w[X_i] for
// every query (dists[i] answers queries[i]), by sum-augmented message
// passing. Queries on one network and node share a single pass rooted
// at that node, without evidence: its root message holds every value's
// joint at once, each row bit-identical to a pass restricted to that
// value. The passes fan over parallelism workers (0 = every CPU, 1 =
// serial) and the results do not depend on it. The error, if any, is
// the first failing query's in slice order.
func CountDists(nets []*Network, w []int, queries []CountQuery, parallelism int) ([]dist.Discrete, error) {
	// Validate each network once: its shape against w, then the
	// polytree check, which the one-query path ran after the index
	// checks.
	shapeErrs, treeErrs := make([]error, len(nets)), make([]error, len(nets))
	engines := make([]*mpEngine, len(nets))
	for i, nw := range nets {
		shapeErrs[i], treeErrs[i] = nw.checkCountQuery(w), nw.Polytree()
		if shapeErrs[i] == nil && treeErrs[i] == nil {
			engines[i] = newMPEngine(nw, w)
		}
	}
	errs := make([]error, len(queries))
	var groups [][]int // valid queries by (network, node), one pass each
	at := map[[2]int]int{}
	for i, q := range queries {
		if q.Net < 0 || q.Net >= len(nets) {
			errs[i] = fmt.Errorf("bayes: network index %d outside [0,%d)", q.Net, len(nets))
			continue
		}
		if errs[i] = shapeErrs[q.Net]; errs[i] != nil {
			continue
		}
		nw := nets[q.Net]
		if q.Cond < -1 || q.Cond >= nw.N() {
			errs[i] = fmt.Errorf("bayes: conditioning index %d outside [-1,%d)", q.Cond, nw.N())
			continue
		}
		if card := nw.nodes[0].Card; q.Cond >= 0 && (q.State < 0 || q.State >= card) {
			errs[i] = fmt.Errorf("bayes: conditioning state %d outside [0,%d)", q.State, card)
			continue
		}
		if errs[i] = treeErrs[q.Net]; errs[i] != nil {
			continue
		}
		key := [2]int{q.Net, q.Cond}
		g, ok := at[key]
		if !ok {
			g = len(groups)
			at[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	out := make([]dist.Discrete, len(queries))
	sched.New(parallelism).ForEach(len(groups), func(g int) {
		q := queries[groups[g][0]]
		engines[q.Net].countDistsAt(q.Cond, queries, groups[g], out, errs)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkCountQuery validates the network for a count query with weights
// w: one shared cardinality, indexed by w.
func (nw *Network) checkCountQuery(w []int) error {
	card := nw.nodes[0].Card
	for i, nd := range nw.nodes {
		if nd.Card != card {
			return fmt.Errorf("bayes: count query needs uniform cardinality; node %d has %d states, want %d", i, nd.Card, card)
		}
	}
	if len(w) != card {
		return fmt.Errorf("bayes: weight vector has length %d, want %d", len(w), card)
	}
	return nil
}

// countDistsAt answers the queries qs, all conditioned on node cond
// (−1 for none), from one message pass per skeleton component. Each
// component contributes an independent sum and the distribution is
// their convolution, taken in component order: the conditioned
// component is read at the evidence value, the rest summed over their
// root.
func (e *mpEngine) countDistsAt(cond int, queries []CountQuery, qs []int, out []dist.Discrete, errs []error) {
	nw := e.nw
	vecs := make([][]float64, len(e.comps)) // nil for the conditioned component
	var root mpMsg
	for c, comp := range e.comps {
		if slices.Contains(comp, cond) {
			root = e.varMsg(cond, -1)
			continue
		}
		m := e.varMsg(comp[0], -1)
		vec := make([]float64, m.width)
		for x := 0; x < nw.nodes[comp[0]].Card; x++ {
			for s, v := range m.vals[x*m.width : (x+1)*m.width] {
				vec[s] += v
			}
		}
		vecs[c] = vec
	}
	n := nw.N()
	for _, qi := range qs {
		state := queries[qi].State
		total := []float64{1}
		for _, vec := range vecs {
			if vec == nil {
				vec = root.vals[state*root.width : (state+1)*root.width]
			}
			next := make([]float64, len(total)+len(vec)-1)
			for i, tv := range total {
				//privlint:allow floatcompare structural-zero sparsity skip
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
			errs[qi] = fmt.Errorf("bayes: conditioning event X_%d=%d has probability zero", cond, state)
			continue
		}
		atoms := 0
		for _, p := range total {
			if p > 0 {
				atoms++
			}
		}
		buf := make([]float64, 2*atoms)
		xs, ps := buf[:atoms:atoms], buf[atoms:]
		i := 0
		for s, p := range total {
			if p <= 0 {
				continue
			}
			xs[i] = float64(s + n*e.wMin)
			ps[i] = p / mass
			i++
		}
		out[qi], errs[qi] = dist.FromSorted(xs, ps)
	}
}
