package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// layerNames are the replayed layers, as span names; each is reported
// as <name>_ms, the median of its spans' self time (a span minus its
// children), except wal.append, whose fsync child is reported apart.
var layerNames = []string{
	"release.prepare",
	"core.hit",
	"core.exact_k51",
	"core.mqm_k4",
	"kantorovich.chain",
	"kantorovich.network",
	"core.batch",
	"release.noise",
	"accounting.check",
	"wal.append",
	"wal.fsync",
}

// envelopeSpans are the replayed parts of the handler that are not a
// program layer: request decoding, response encoding, and the
// observability work around them.
var envelopeSpans = map[string]bool{"server.decode": true, "server.encode": true, "server.obs": true}

// layerStats is the analysis of one traced run.
type layerStats struct {
	self map[string][]float64 // per span, by name
	full map[string][]float64
	// Per lockstep request.
	transport, handler, envelope []float64
	classes                      map[string]*classStats
}

// classStats aggregates one request class's lockstep requests.
type classStats struct {
	n       int
	handler float64            // summed handler time
	self    map[string]float64 // summed self time per span name
	perReq  map[string][]float64
	// covered is, per request, the replayed spans' share of the
	// handler time.
	covered []float64
}

func analyze(spans []span) *layerStats {
	ls := &layerStats{self: map[string][]float64{}, full: map[string][]float64{}, classes: map[string]*classStats{}}
	children := map[int]float64{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] += spans[i].dur()
		}
	}
	type reqAcc struct {
		class            string
		rt, handler      float64
		layers, replayed float64
		self             map[string]float64
	}
	reqs := map[int]*reqAcc{}
	var order []int
	for i := range spans {
		s := &spans[i]
		self := s.dur() - children[s.ID]
		ls.self[s.Name] = append(ls.self[s.Name], self)
		ls.full[s.Name] = append(ls.full[s.Name], s.dur())
		if s.Req < 0 {
			continue // (b)'s warm-up pass: layer samples only
		}
		a, ok := reqs[s.Req]
		if !ok {
			a = &reqAcc{class: s.Class, self: map[string]float64{}}
			reqs[s.Req] = a
			order = append(order, s.Req)
		}
		switch {
		case s.Name == "http.roundtrip":
			a.rt = s.dur()
		case s.Name == "server.handler":
			a.handler = s.dur()
		default:
			a.self[s.Name] += self
			if s.Parent == 0 {
				a.replayed += s.dur()
				if !envelopeSpans[s.Name] {
					a.layers += s.dur()
				}
			}
		}
	}
	for _, id := range order {
		a := reqs[id]
		if !(a.handler > 0 && a.replayed > 0) {
			continue // a failed request: no complete lockstep pair
		}
		ls.transport = append(ls.transport, a.rt-a.handler)
		ls.handler = append(ls.handler, a.handler)
		ls.envelope = append(ls.envelope, a.handler-a.layers)
		c, ok := ls.classes[a.class]
		if !ok {
			c = &classStats{self: map[string]float64{}, perReq: map[string][]float64{}}
			ls.classes[a.class] = c
		}
		c.n++
		c.handler += a.handler
		c.covered = append(c.covered, a.replayed/a.handler)
		c.self["http.transport"] += a.rt - a.handler
		c.perReq["http.transport"] = append(c.perReq["http.transport"], a.rt-a.handler)
		c.perReq["server.handler"] = append(c.perReq["server.handler"], a.handler)
		for name, v := range a.self {
			c.self[name] += v
			c.perReq[name] = append(c.perReq[name], v)
		}
	}
	return ls
}

// median is the metric value of a layer: the median self time of its
// spans (wal.append: the whole append), 0 when the workload never
// entered the layer.
func (ls *layerStats) median(name string) float64 {
	xs := ls.self[name]
	if name == "wal.append" {
		xs = ls.full[name]
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func (ls *layerStats) quantile(name string, q float64) float64 {
	xs := append([]float64(nil), ls.full[name]...)
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return quantile(xs, q)
}

// coverageFloor is the share of handler time the replayed spans must
// explain in a class's median request; below it the class is flagged.
const coverageFloor = 0.9

// print writes the self-time table: per request class, each layer's
// median self time per request and its share of the summed handler
// time, then the median share of handler time the replayed spans
// cover.
func (ls *layerStats) print(w io.Writer) {
	names := make([]string, 0, len(ls.classes))
	for n := range ls.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	cols := append([]string{"server.handler", "http.transport", "server.decode"}, layerNames...)
	cols = append(cols, "server.encode", "server.obs")
	fmt.Fprintf(w, "self time per request class (median ms per request / share of handler time)\n")
	fmt.Fprintf(w, "  %-22s", "layer")
	for _, n := range names {
		fmt.Fprintf(w, " %20s", fmt.Sprintf("%s(n=%d)", n, ls.classes[n].n))
	}
	fmt.Fprintln(w)
	for _, col := range cols {
		var cells []string
		any := false
		for _, n := range names {
			c := ls.classes[n]
			xs := c.perReq[col]
			if len(xs) == 0 {
				cells = append(cells, fmt.Sprintf(" %20s", "-"))
				continue
			}
			any = true
			share := c.self[col] / c.handler
			if col == "server.handler" {
				share = 1
			}
			cells = append(cells, fmt.Sprintf(" %20s", fmt.Sprintf("%.4f / %4.1f%%", median(xs), 100*share)))
		}
		if any {
			fmt.Fprintf(w, "  %-22s%s\n", col, strings.Join(cells, ""))
		}
	}
	fmt.Fprintf(w, "  %-22s", "covered (median)")
	var flagged []string
	for _, n := range names {
		cov := median(ls.classes[n].covered)
		fmt.Fprintf(w, " %20s", fmt.Sprintf("%.1f%%", 100*cov))
		if cov < coverageFloor {
			flagged = append(flagged, n)
		}
	}
	fmt.Fprintln(w)
	if len(flagged) > 0 {
		fmt.Fprintf(w, "  FLAG: replayed layers cover less than %.0f%% of handler time for %s\n", 100*coverageFloor, strings.Join(flagged, ", "))
	}
}
