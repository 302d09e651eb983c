package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"catpa/internal/mc"
	"catpa/internal/partition"
)

// decodeSlow is the reference decode, and the fallback's definition: a
// streaming json.Decoder over the (limited) body.
func decodeSlow(body []byte, limit int64) (*Request, error) {
	var req Request
	err := json.NewDecoder(limitBody(body, limit)).Decode(&req)
	return &req, err
}

// limitBody wraps body in the handler's MaxBytesReader; limit <= 0
// leaves it unlimited.
func limitBody(body []byte, limit int64) io.Reader {
	r := io.NopCloser(bytes.NewReader(body))
	if limit <= 0 {
		return r
	}
	return http.MaxBytesReader(nil, r, limit)
}

// sameRequest reports the first field in which the two decodes differ,
// comparing floats bitwise; "" means equal.
func sameRequest(a, b *Request) string {
	switch {
	case a.M != b.M || a.K != b.K:
		return "m/k"
	case !slices.Equal(a.Schemes, b.Schemes):
		return "schemes"
	case a.Backend != b.Backend || a.TimeoutMS != b.TimeoutMS || a.RequireFull != b.RequireFull || a.Tag != b.Tag:
		return "backend/timeout_ms/require_full/tag"
	case (a.TaskSet == nil) != (b.TaskSet == nil):
		return "task_set presence"
	case a.TaskSet == nil:
		return ""
	case a.TaskSet.Len() != b.TaskSet.Len():
		return "task count"
	case mc.TaskSetHash(a.TaskSet) != mc.TaskSetHash(b.TaskSet):
		return "task set hash"
	}
	for i := range a.TaskSet.Tasks {
		x, y := &a.TaskSet.Tasks[i], &b.TaskSet.Tasks[i]
		if x.ID != y.ID || x.Name != y.Name || x.Crit != y.Crit ||
			math.Float64bits(x.Period) != math.Float64bits(y.Period) ||
			len(x.WCET) != len(y.WCET) {
			return "task fields"
		}
		for k := range x.WCET {
			if math.Float64bits(x.WCET[k]) != math.Float64bits(y.WCET[k]) {
				return "wcet bits"
			}
		}
	}
	return ""
}

func marshalRequest(tb testing.TB, req *Request) []byte {
	tb.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzDecodeAdmit is the differential gate of the fast decoder: when it
// accepts a body, encoding/json accepts it too and decodes the same
// request, bit for bit; and decodeRequest as a whole, fallback
// included, answers every body (cut off at limit bytes when limit > 0)
// with the error text encoding/json gives.
func FuzzDecodeAdmit(f *testing.F) {
	// Small sets keep the minimization of each new input fast; the
	// committed corpus holds the fallback triggers.
	f.Add(marshalRequest(f, &Request{TaskSet: genSet(f, 2, 2, 3, 0.5, 1), M: 2, K: 2, Schemes: []string{"CA-TPA", "FFD"}, Tag: "t"}), 0)
	f.Add(marshalRequest(f, &Request{TaskSet: genSet(f, 2, 4, 2, 0.6, 2), M: 2, RequireFull: true, Backend: "edfvd", TimeoutMS: 50}), 200)
	f.Fuzz(func(t *testing.T, body []byte, limit int) {
		var fast Request
		if decodeFast(body, &fast) {
			slow, err := decodeSlow(body, 0)
			if err != nil {
				t.Fatalf("fast path accepted a body encoding/json rejects (%v)", err)
			}
			if diff := sameRequest(&fast, slow); diff != "" {
				t.Fatalf("fast and encoding/json decodes differ in %s", diff)
			}
		}
		got, gotErr := decodeRequest(limitBody(body, int64(limit)))
		want, wantErr := decodeSlow(body, int64(limit))
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("decodeRequest error %v, encoding/json %v", gotErr, wantErr)
		}
		if gotErr == nil {
			if diff := sameRequest(got, want); diff != "" {
				t.Fatalf("decodeRequest and encoding/json differ in %s", diff)
			}
		}
	})
}

// TestDecodeFastGrammar pins which bodies take the fast path: the
// marshalled form and whitespace or member-order variants of it do;
// every construct outside the grammar falls back.
func TestDecodeFastGrammar(t *testing.T) {
	base := string(marshalRequest(t, &Request{TaskSet: feasibleSet(t), M: 4, Tag: "x"}))
	set := base[len(`{"task_set":`):strings.Index(base, `,"m":4`)]
	with := func(old, new string) string {
		if !strings.Contains(base, old) {
			t.Fatalf("base body lacks %q", old)
		}
		return strings.Replace(base, old, new, 1)
	}
	fast := map[string]string{
		"marshalled":      base,
		"reordered":       `{"tag":"x","m":4,"task_set":` + set + `}`,
		"whitespace":      " \n{ \"m\" :\t4 , \"task_set\" : " + set + " } \r\n",
		"no task_set":     `{"m":4}`,
		"empty schemes":   with(`"m":4`, `"m":4,"schemes":[]`),
		"utf-8 tag":       with(`"tag":"x"`, `"tag":"déjà"`),
		"negative zero k": with(`"m":4`, `"m":4,"k":-0`),
	}
	for name, body := range fast {
		var req Request
		if !decodeFast([]byte(body), &req) {
			t.Errorf("%s: fell back", name)
		}
	}
	slow := map[string]string{
		"mixed-case key":  with(`"m":4`, `"M":4`),
		"unknown key":     with(`"m":4`, `"m":4,"bogus":1`),
		"escaped key":     with(`"m":4`, `"\u006d":4`),
		"folded key":      with(`"m":4`, `"m":4,"ſchemes":["FFD"]`),
		"duplicate key":   with(`"m":4`, `"m":4,"m":4`),
		"null":            with(`"tag":"x"`, `"tag":null`),
		"null set":        `{"m":4,"task_set":null}`,
		"float int":       with(`"m":4`, `"m":4.0`),
		"exponent int":    with(`"m":4`, `"m":4e0`),
		"leading zero":    with(`"m":4`, `"m":04`),
		"plus sign":       with(`"m":4`, `"m":+4`),
		"out of range":    with(`"period":`, `"period":1e400,"x":`),
		"huge int":        with(`"m":4`, `"m":99999999999999999999`),
		"escaped string":  with(`"tag":"x"`, `"tag":"\u0000"`),
		"control byte":    with(`"tag":"x"`, "\"tag\":\"a\tb\""),
		"invalid utf-8":   with(`"tag":"x"`, "\"tag\":\"\xff\""),
		"trailing brace":  base + "}",
		"trailing comma":  with(`"tag":"x"`, `"tag":"x",`),
		"invalid set":     with(`"crit":2`, `"crit":3`),
		"bool as string":  with(`"m":4`, `"m":4,"require_full":"true"`),
		"truncated":       base[:len(base)/2],
		"not an object":   `[]`,
		"empty body":      ``,
		"byte order mark": "\ufeff" + base,
	}
	for name, body := range slow {
		var req Request
		if decodeFast([]byte(body), &req) {
			t.Errorf("%s: took the fast path", name)
		}
	}
}

// TestDecodeFallbackParity: bodies encoding/json accepts but the fast
// grammar does not still get the verdict of the canonical body.
func TestDecodeFallbackParity(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheSize: -1})
	ts := feasibleSet(t)
	b, err := ts.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	set := string(b)
	status, want := postRaw(t, hs.Client(), hs.URL, []byte(`{"m":4,"task_set":`+set+`}`))
	if status != http.StatusOK || !want.Admitted {
		t.Fatalf("canonical body: status %d, %+v", status, want)
	}
	for name, body := range map[string]string{
		"mixed-case key": `{"M":4,"task_set":` + set + `}`,
		"unknown key":    `{"m":4,"bogus":[1,{"x":null}],"task_set":` + set + `}`,
		"trailing data":  `{"m":4,"task_set":` + set + `} trailing`,
	} {
		var req Request
		if decodeFast([]byte(body), &req) {
			t.Fatalf("%s: took the fast path", name)
		}
		status, got := postRaw(t, hs.Client(), hs.URL, []byte(body))
		if status != http.StatusOK || got.Admitted != want.Admitted || got.Verdict != want.Verdict ||
			got.TaskSetHash != want.TaskSetHash || len(got.Verdicts) != len(want.Verdicts) {
			t.Errorf("%s: status %d, %+v; want 200, %+v", name, status, got, want)
		}
	}
}

// discardWriter is a reusable http.ResponseWriter, so an allocation
// count sees the handler's allocations only.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// maxAdmitAllocs bounds the allocations of one uncached five-scheme
// admission of a 96-task K=4 set, HTTP plumbing, decode, validation,
// hash, evaluation and encoding included: 60 with go1.24 on
// linux/amd64, against 312 when the body went through encoding/json.
const maxAdmitAllocs = 68

func TestServeHTTPAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	s := NewServer(Config{CacheSize: -1, Workers: 1})
	defer s.Shutdown(t.Context())
	names := make([]string, len(partition.Schemes))
	for i, sc := range partition.Schemes {
		names[i] = sc.String()
	}
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = marshalRequest(t, &Request{TaskSet: genSet(t, 8, 4, 96, 0.6, int64(i)), M: 8, K: 4, Schemes: names})
	}
	rd := bytes.NewReader(nil)
	hr := httptest.NewRequest(http.MethodPost, "/v1/admit", nil)
	hr.Body = io.NopCloser(rd)
	w := &discardWriter{h: http.Header{}}
	n := 0
	allocs := testing.AllocsPerRun(len(bodies)*4, func() {
		rd.Reset(bodies[n%len(bodies)])
		n++
		s.ServeHTTP(w, hr)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	})
	t.Logf("%.0f allocs per request", allocs)
	if allocs > maxAdmitAllocs {
		t.Errorf("ServeHTTP allocates %.0f times per request, bound %d", allocs, maxAdmitAllocs)
	}
}
