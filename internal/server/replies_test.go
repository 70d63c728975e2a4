package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http/httptest"
	"testing"
)

// TestReplyBytesPinned sends one fixed-seed body per e2ebench request
// class, each to a fresh server, and checks the exact reply bytes
// against SHA-256 digests captured when sessions were still decoded by
// reflection into [][]int. The body digests pin the generator, so a
// drift there is told apart from a drift in what the server replies.
func TestReplyBytesPinned(t *testing.T) {
	cases := []struct {
		name    string
		classes []*bodyClass
		body    string // SHA-256 of the request body
		reply   string // SHA-256 of the reply body
	}{
		{"act4-groupdp", []*bodyClass{classAct4GroupDP},
			"3949856011cfbb77a7b052d3a1a7c87a2a4550852ef60ba488722b6e1bddbfef",
			"3acf020f9c94ccc8642f88abc06d60e6802eda3324f47b4456e3e2443dc2fe90"},
		{"act4-approx", []*bodyClass{classAct4Approx},
			"886ff46b669b5998638257a73c6396e8943fe298a49eedcff12a07aae6211151",
			"7cf1651d00d96d45ff55ca2a74457f1cceaf12fda1b3585520edf12395290b5b"},
		{"k51-dp", []*bodyClass{classK51DP},
			"7b64c2aab1cccbfe18c489c8590b0a296f2bc133361797b21f8425f2f5b5342d",
			"c41c88375912c35957c43f5492e51a07ed6696edea95f546fcbe9be3a5ca700d"},
		{"k51-exact", []*bodyClass{classK51Exact},
			"34ef2325abc2ffb225ac636a1be3b08a0364695d57634a3fc7626f3b39cb4a4a",
			"06959424dba6eb32bddccc65748d8f91b981f53996a8e55fadb4079748491015"},
		{"chain3-kanto", []*bodyClass{classChain3Kanto},
			"4494b6f956b9356a73034c95ffeb6488d4ca19de6324a3bd894c41fafd423d76",
			"2d0fa79c563796d1315461566376ff806c11d94e2dbae2a99950a512d6982794"},
		{"chain3-gauss", []*bodyClass{classChain3Gauss},
			"0ed14672e8a8682c6112c4a4eb94d2bb3f3221223dfb868172ab193e1064e8fc",
			"8b82357e9041d3c7dcd90c5be2f59b5fbe19462fb9f274010d7ee436e70a063e"},
		{"tree32-kanto", []*bodyClass{classTree32},
			"04ec5e76665c6a0168cf90b4137ae593c9fe8906f51f9e16ca1a39006073b7b3",
			"9911a17de40fb44d3047be306adf73ddc0fc22f057e1098fcd24035127cb066a"},
		{"batch4", batch4,
			"6a0c4ddf20af05769b349c0aa462cfdc5ea62e98d14739b1b3a425079196b000",
			"15fc107eeabfc10db555627481ce9ce80473aa76d83e65190a2ad22b091ac165"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := shapedBody(t, uint64(101+i), tc.classes...)
			path := "/v1/release"
			if len(tc.classes) > 1 {
				path = "/v1/release/batch"
			}
			rec := httptest.NewRecorder()
			New(Config{}).Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			if rec.Code != 200 {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
			if got := digest(body); got != tc.body {
				t.Fatalf("request body digest %s, want %s: the body generator moved", got, tc.body)
			}
			if got := digest(rec.Body.Bytes()); got != tc.reply {
				t.Errorf("reply digest %s, want %s (%d reply bytes)", got, tc.reply, rec.Body.Len())
			}
		})
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
