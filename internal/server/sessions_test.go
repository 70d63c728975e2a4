package server

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestSessionsDecode pins what the sessions field decodes to through
// the handlers' strict decode, nil-versus-empty included, and the
// position each refusal names.
func TestSessionsDecode(t *testing.T) {
	for _, tc := range []struct {
		field string
		want  Sessions
		err   string // substring of the error; "" = accepted
	}{
		{field: `null`, want: nil},
		{field: `[]`, want: Sessions{}},
		{field: `[[]]`, want: Sessions{{}}},
		{field: `[[],[0]]`, want: Sessions{{}, {0}}},
		{field: `[[-0]]`, want: Sessions{{0}}},
		{field: `[[12, 7],[ 0,50,3]]`, want: Sessions{{12, 7}, {0, 50, 3}}},
		{field: " \t\n[ [ 1 ,\r\n2 ] , [ 3 ] ]\n", want: Sessions{{1, 2}, {3}}},
		{field: fmt.Sprintf("[[%d,%d]]", math.MaxInt, math.MinInt), want: Sessions{{math.MaxInt, math.MinInt}}},
		{field: `[[1.0]]`, err: "sessions[0][0]: want an integer"},
		{field: `[[1e2]]`, err: "sessions[0][0]: want an integer"},
		{field: `[[0,1,2],[3,4E1]]`, err: "sessions[1][1]: want an integer"},
		{field: `[[0,1,0,null,1]]`, err: "sessions[0][3]: want an integer"},
		{field: `[[9223372036854775808]]`, err: "sessions[0][0]: integer out of range"},
		{field: `[[0,-9223372036854775809]]`, err: "sessions[0][1]: integer out of range"},
		{field: `[["1"]]`, err: "sessions[0][0]: want an integer"},
		{field: `[[true]]`, err: "sessions[0][0]: want an integer"},
		{field: `[[{}]]`, err: "sessions[0][0]: want an integer"},
		{field: `[[[0]]]`, err: "sessions[0][0]: want an integer"},
		{field: `[1,2]`, err: "sessions[0]: want an array of integers"},
		{field: `[[0],null]`, err: "sessions[1]: want an array of integers"},
		{field: `"1"`, err: "sessions: want an array of integer arrays"},
		{field: `true`, err: "sessions: want an array of integer arrays"},
		{field: `{}`, err: "sessions: want an array of integer arrays"},
		{field: `0`, err: "sessions: want an array of integer arrays"},
	} {
		var got ReleaseRequest
		err := decodeBody([]byte(`{"sessions":`+tc.field+`}`), &got)
		switch {
		case tc.err != "":
			if err == nil || !strings.Contains(err.Error(), "bad request body: "+tc.err) {
				t.Errorf("%q: error %v, want one containing %q", tc.field, err, tc.err)
			}
		case err != nil:
			t.Errorf("%q: %v", tc.field, err)
		case !reflect.DeepEqual(got.Sessions, tc.want):
			t.Errorf("%q decoded to %#v, want %#v", tc.field, got.Sessions, tc.want)
		}
	}
}

// TestSessionsSizedByStructure: the slab and row sizes count commas and
// brackets, which a string may hold a megabyte of; a refused string
// must not cost a slab sized by it.
func TestSessionsSizedByStructure(t *testing.T) {
	data := []byte(`[[0],"` + strings.Repeat("[,", 1<<20) + `"]`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := new(Sessions).UnmarshalJSON(data)
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "sessions[1]: want an array of integers" {
		t.Fatalf("error %v, want sessions[1]: want an array of integers", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("refusing a string of %d bytes allocated %d bytes", len(data), n)
	}
}

// TestSessionsDoNotAlias: the sessions share one slab, but each is cut
// to its own capacity, so appending to one cannot write into the next.
func TestSessionsDoNotAlias(t *testing.T) {
	var s Sessions
	if err := json.Unmarshal([]byte(`[[0,1],[2,3],[],[4]]`), &s); err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if cap(s[i]) != len(s[i]) {
			t.Errorf("session %d has cap %d > len %d", i, cap(s[i]), len(s[i]))
		}
		s[i] = append(s[i], 9)
	}
	if want := (Sessions{{0, 1, 9}, {2, 3, 9}, {9}, {4, 9}}); !reflect.DeepEqual(s, want) {
		t.Errorf("after appends: %v, want %v", s, want)
	}
}
