package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"pufferfish/internal/release"
)

// refRequest mirrors ReleaseRequest for the reference decode: its own
// Sessions field, of type S, shadows the embedded one, so encoding/json
// decodes the sessions by reflection into S and every other field
// exactly as it decodes ReleaseRequest's.
type refRequest[S any] struct {
	ReleaseRequest
	Sessions S `json:"sessions,omitempty"`
}

// refBatch mirrors BatchRequest the same way.
type refBatch[S any] struct {
	BatchRequest
	Requests []refRequest[S] `json:"requests"`
}

// refRows is the fuzz reference's sessions field. Each value of the
// sessions key is decoded by encoding/json into [][]*int, in place over
// the previous one as a duplicate key is, so a null session shows as a
// nil row and a null element as a nil pointer. sawNull also remembers
// a null that a later duplicate key overwrote.
type refRows struct {
	rows    [][]*int
	sawNull bool
}

func (r *refRows) UnmarshalJSON(data []byte) error {
	if err := json.Unmarshal(data, &r.rows); err != nil {
		return err
	}
	for _, row := range r.rows {
		if row == nil {
			r.sawNull = true
		}
		for _, p := range row {
			if p == nil {
				r.sawNull = true
			}
		}
	}
	return nil
}

// ints dereferences the reference rows; ok is false when a null was
// seen, which the Sessions decoder must refuse.
func (r *refRows) ints() (Sessions, bool) {
	if r.sawNull {
		return nil, false
	}
	if r.rows == nil {
		return nil, true
	}
	out := make(Sessions, len(r.rows))
	for i, row := range r.rows {
		out[i] = make([]int, len(row))
		for j, p := range row {
			out[i][j] = *p
		}
	}
	return out, true
}

// decodeBody runs body through decodeJSON, the handlers' strict decode,
// into v.
func decodeBody(body []byte, v any) error {
	return decodeJSON(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/release", bytes.NewReader(body)), v)
}

// checkAgainstReference decodes body into a ReleaseRequest and into the
// reflection reference, and fails unless the Sessions decoder accepts
// exactly the bodies the reference accepts with no null session or
// element, and then yields the same request, nil-versus-empty included.
// It returns the decoded request, or nil when it was refused.
func checkAgainstReference(t *testing.T, body []byte) *ReleaseRequest {
	t.Helper()
	var got ReleaseRequest
	err := decodeBody(body, &got)
	var ref refRequest[refRows]
	refErr := decodeBody(body, &ref)
	want := ref.ReleaseRequest
	var ok bool
	want.Sessions, ok = ref.Sessions.ints()
	switch {
	case refErr != nil || !ok:
		if err == nil {
			t.Fatalf("accepted %q, which the reference refuses (%v, null seen: %v)", body, refErr, !ok)
		}
		return nil
	case err != nil:
		t.Fatalf("refused %q, which the reference accepts: %v", body, err)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%q decoded to\n%#v\nwant\n%#v", body, got, want)
	}
	return &got
}

// checkSessionsAgainstReference hands data straight to UnmarshalJSON,
// with no syntax check in front, and to json.Unmarshal into refRows:
// the Sessions decoder must refuse whatever is not JSON too.
func checkSessionsAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	var got Sessions
	err := got.UnmarshalJSON(data)
	var ref refRows
	refErr := json.Unmarshal(data, &ref)
	want, ok := ref.ints()
	switch {
	case refErr != nil || !ok:
		if err == nil {
			t.Fatalf("UnmarshalJSON accepted %q, which the reference refuses (%v, null seen: %v)", data, refErr, !ok)
		}
	case err != nil:
		t.Fatalf("UnmarshalJSON refused %q, which the reference accepts: %v", data, err)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("UnmarshalJSON(%q) = %#v, want %#v", data, got, want)
	}
}

// checkBatchAgainstReference is checkAgainstReference for a batch body.
func checkBatchAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	var got BatchRequest
	err := decodeBody(body, &got)
	var ref refBatch[refRows]
	refErr := decodeBody(body, &ref)
	ok := refErr == nil
	want := ref.BatchRequest
	if ok && ref.Requests != nil {
		want.Requests = make([]ReleaseRequest, len(ref.Requests))
		for i := range ref.Requests {
			var rowsOK bool
			want.Requests[i] = ref.Requests[i].ReleaseRequest
			want.Requests[i].Sessions, rowsOK = ref.Requests[i].Sessions.ints()
			ok = ok && rowsOK
		}
	}
	switch {
	case !ok:
		if err == nil {
			t.Fatalf("accepted batch %q, which the reference refuses (%v)", body, refErr)
		}
	case err != nil:
		t.Fatalf("refused batch %q, which the reference accepts: %v", body, err)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("batch %q decoded to\n%#v\nwant\n%#v", body, got, want)
	}
}

// FuzzReleaseRequestDecode drives arbitrary bytes through the exact
// request-parsing path the POST /v1/release handler runs before any
// scoring: the strict JSON decode, session extraction, and config
// mapping (including the embedded Bayesian-network parse). None of it
// may panic, whatever the body. The decode is differential: the
// Sessions decoder must accept and produce exactly what encoding/json's
// reflective decode does (refRows), bar the nulls it refuses, for the
// body alone, for the body wrapped as a one-request batch, and for the
// bytes handed to UnmarshalJSON as a bare sessions value.
func FuzzReleaseRequestDecode(f *testing.F) {
	for _, body := range []string{
		`{"epsilon": 1, "mechanism": "dp", "sessions": [[0, 1, 0]]}`,
		`{"epsilon": 1, "mechanism": "mqm-exact", "smoothing": 0.5, "series": "0 1\n1 0"}`,
		`{"epsilon": 1, "mechanism": "dp", "series": "0 1", "sessions": [[0,1]]}`,
		`{"epsilon": 5e-324, "mechanism": "mqm-exact", "smoothing": 0.5, "sessions": [[0,1,0,1]]}`,
		`{"epsilon": 1, "mechanism": "kantorovich", "substrate": "network", "accountant": "s",
		  "network": [{"name":"root","card":2,"cpt":[0.3,0.7]},{"name":"leaf","card":2,"parents":[0],"cpt":[0.9,0.1,0.2,0.8]}],
		  "sessions": [[0, 1]]}`,
		`{"epsilon": 1, "mechanism": "dp", "sessions": [[0,1]]}{"epsilon": 2}`,
		`{"unknown_field": true}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	for _, sessions := range []string{
		`null`, `[]`, `[[]]`, `[[],[0]]`, `[[-0]]`, `[[1.0]]`, `[[1e2]]`,
		`[[9223372036854775807]]`, `[[9223372036854775808]]`, `[[-9223372036854775808]]`, `[[-9223372036854775809]]`,
		`[["1"]]`, `[[true]]`, `[[{}]]`, `[[[0]]]`, `[1,2]`, `"1"`, `true`, `{}`, `0`,
		`[[0,null,1]]`, `[[0],null]`, `[null]`,
		" \t\n\r[ \t\n\r[ \t\n\r0 \t\n\r, \t\n\r1 \t\n\r] \t\n\r, \t\n\r[ \t\n\r] \t\n\r] \t\n\r",
		// Malformed: only a direct UnmarshalJSON call sees these.
		``, `[`, `]`, `[[1]`, `[[1]]]`, `[]]`, `[[]`, `[[01]]`, `[[1,]]`, `[[,1]]`,
		`[[1 2]]`, `[[-]]`, `[[1],]`, `[[1][2]]`, `nul`, `null,`, `[[0x1]]`, `[[+1]]`,
	} {
		f.Add([]byte(sessions))
		f.Add([]byte(`{"epsilon":1,"mechanism":"dp","sessions":` + sessions + `}`))
	}
	for _, body := range []string{
		// Duplicate keys: a later value decodes over the earlier one.
		`{"sessions":[[1,2,3],[4]],"sessions":[[5]],"epsilon":1,"mechanism":"dp"}`,
		`{"sessions":[[1,2]],"sessions":[[null,5]],"epsilon":1,"mechanism":"dp"}`,
		`{"sessions":[[null]],"sessions":[[1]],"epsilon":1,"mechanism":"dp"}`,
		`{"sessions":[null],"sessions":[[1]],"epsilon":1,"mechanism":"dp"}`,
		`{"sessions":[[1]],"sessions":null,"epsilon":1,"mechanism":"dp"}`,
		`{"sessions":null,"sessions":[[1]],"epsilon":1,"mechanism":"dp"}`,
		`{"sessions":[[1,2]],"sessions":[],"epsilon":1,"mechanism":"dp"}`,
		`{"sessions":[[1,2]],"sessions":[[]],"epsilon":1,"mechanism":"dp"}`,
		// Keys match case-insensitively.
		`{"Sessions":[[0,1]],"epsilon":1,"mechanism":"dp"}`,
		`{"SESSIONS":[[0,1]],"epsilon":1,"mechanism":"dp"}`,
		`{"sessions":[[0]],"SESSIONS":[[1,2]],"Sessions":[[3]],"epsilon":1,"mechanism":"dp"}`,
	} {
		f.Add([]byte(body))
	}
	for i, classes := range [][]*bodyClass{
		{classAct4Approx}, {classK51Exact}, {classChain3Gauss}, {classTree32},
	} {
		f.Add(shapedBody(f, uint64(i), classes...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkSessionsAgainstReference(t, data)
		checkBatchAgainstReference(t, append(append([]byte(`{"requests":[`), data...), "]}"...))
		body := checkAgainstReference(t, data)
		if body == nil {
			return
		}
		sessions, serr := body.sessions()
		if serr == nil && sessions == nil {
			t.Fatal("sessions() returned nil sessions without an error")
		}
		cfg, cerr := body.config(release.NewScoreCache())
		if cerr == nil && len(body.Network) > 0 && cfg.Network == nil {
			t.Fatal("config() accepted a network body but attached no network")
		}
	})
}
