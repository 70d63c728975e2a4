package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"pufferfish/internal/bayes"
	"pufferfish/internal/server"
)

// bodies renders a workload's warm-up pass, its fill blocks and two
// blocks of its timed sequence, grouped by request class.
func bodies(w *workload, seed uint64) map[string][][]byte {
	in := newInputs(w, seed, 2)
	out := map[string][][]byte{}
	reqs := in.warmup()
	for _, b := range in.fill {
		reqs = append(reqs, b...)
	}
	for i := 0; i < in.timedCount(); i++ {
		reqs = append(reqs, in.timed(i))
	}
	for _, r := range reqs {
		var b bytes.Buffer
		r.render(&b)
		out[r.className()] = append(out[r.className()], b.Bytes())
	}
	return out
}

// TestSeedDeterminism: a seed fixes every body byte for byte; another
// seed changes the data but not the per-class request counts or body
// sizes.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, again, other := bodies(w, 7), bodies(w, 7), bodies(w, 8)
		for class, bs := range a {
			if len(again[class]) != len(bs) || len(other[class]) != len(bs) {
				t.Fatalf("%s/%s: %d, %d and %d requests", w.name, class, len(bs), len(again[class]), len(other[class]))
			}
			var sizes, otherSizes []int
			same := 0
			for i, b := range bs {
				if !bytes.Equal(b, again[class][i]) {
					t.Errorf("%s/%s request %d: same seed, different body", w.name, class, i)
				}
				if bytes.Equal(b, other[class][i]) {
					same++
				}
				sizes = append(sizes, len(b))
				otherSizes = append(otherSizes, len(other[class][i]))
			}
			if same == len(bs) {
				t.Errorf("%s/%s: another seed gave the same bodies", w.name, class)
			}
			sort.Ints(sizes)
			sort.Ints(otherSizes)
			for i := range sizes {
				if sizes[i] != otherSizes[i] {
					t.Errorf("%s/%s: body sizes %v vs %v across seeds", w.name, class, sizes, otherSizes)
					break
				}
			}
		}
		if len(other) != len(a) {
			t.Errorf("%s: %d classes vs %d across seeds", w.name, len(a), len(other))
		}
	}
}

// TestBodiesDecode: every body is one strict request the server
// accepts, and every network is a valid polytree.
func TestBodiesDecode(t *testing.T) {
	for _, w := range workloads {
		for class, bs := range bodies(w, 3) {
			for _, b := range bs {
				dec := json.NewDecoder(bytes.NewReader(b))
				dec.DisallowUnknownFields()
				var reqs []server.ReleaseRequest
				if class == "batch4" {
					var br server.BatchRequest
					if err := dec.Decode(&br); err != nil {
						t.Fatalf("%s/%s: %v", w.name, class, err)
					}
					reqs = br.Requests
				} else {
					var rr server.ReleaseRequest
					if err := dec.Decode(&rr); err != nil {
						t.Fatalf("%s/%s: %v", w.name, class, err)
					}
					reqs = []server.ReleaseRequest{rr}
				}
				for _, rr := range reqs {
					if len(rr.Network) == 0 {
						continue
					}
					if _, err := bayes.ParseJSON(rr.Network); err != nil {
						t.Fatalf("%s/%s: network: %v", w.name, class, err)
					}
				}
			}
		}
	}
}
