package server

import "testing"

// BenchmarkDecodeRelease times the handlers' strict request decode on
// e2ebench-shaped bodies, twice per body: "slab" decodes the request as
// the handlers do, and "reflect" decodes the same bytes into the fuzz
// reference's mirror with sessions typed [][]int, which is how every
// request decoded before Sessions had its own UnmarshalJSON. Run with
// -benchmem to see the allocations of both.
func BenchmarkDecodeRelease(b *testing.B) {
	for _, bc := range []struct {
		name    string
		classes []*bodyClass
	}{
		{"act4", []*bodyClass{classAct4Approx}},
		{"k51", []*bodyClass{classK51Exact}},
		{"chain3-gauss", []*bodyClass{classChain3Gauss}},
		{"batch4", batch4},
	} {
		body := shapedBody(b, 1, bc.classes...)
		// Each decode gets a fresh value, as in the handlers: decoding
		// into a used one would reuse its slices.
		slab := func() any { return new(ReleaseRequest) }
		reflected := func() any { return new(refRequest[[][]int]) }
		if len(bc.classes) > 1 {
			slab = func() any { return new(BatchRequest) }
			reflected = func() any { return new(refBatch[[][]int]) }
		}
		for _, side := range []struct {
			name string
			v    func() any
		}{{"slab", slab}, {"reflect", reflected}} {
			b.Run(bc.name+"/"+side.name, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				for b.Loop() {
					if err := decodeBody(body, side.v()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
