package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"catpa/internal/mc"
	"catpa/internal/partition"
)

// The /v1/admit body decoder. A single pass over the body fills a
// Request for the schema json.Marshal(Request) emits (members in any
// order, JSON whitespace anywhere); a body outside that grammar is
// handed, byte for byte, to encoding/json, which is the definition of
// what the endpoint accepts and of every error it reports. The fast
// path never produces an error of its own, so the two paths can only
// differ in speed.

// maxPooledBody bounds the body buffers kept for reuse: one
// near-MaxBodyBytes request must not pin a megabyte per P.
const maxPooledBody = 256 << 10

// bodyPool recycles request-body read buffers. Only the raw bytes are
// pooled: every decoded value is copied out (strings converted,
// numbers parsed) before the buffer is put back, and the task and WCET
// slabs are allocated per request, because on the 504 grace-expiry
// path a worker can still be reading job.ts after the handler has
// returned.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeRequest reads an admission body to its end (or to the first
// read error) and decodes it: on the fast path when the bytes lie in
// its grammar and the task set validates, through encoding/json
// otherwise. The fallback replays the same bytes followed by the same
// read error at the same offset, so a body cut off by MaxBodyBytes or
// by a disconnect fails exactly as it would on a streaming Decoder.
func decodeRequest(body io.Reader) (*Request, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	_, rerr := buf.ReadFrom(body)
	req := new(Request)
	if rerr == nil && decodeFast(buf.Bytes(), req) {
		return req, nil
	}
	*req = Request{}
	var src io.Reader = bytes.NewReader(buf.Bytes())
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	return req, json.NewDecoder(src).Decode(req)
}

// errReader replays a recorded read error.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeFast parses body into req and reports whether it could. It
// succeeds only on a body encoding/json decodes to the same Request: a
// single object whose keys are exact-case, known and unrepeated, with
// no null, no string escapes or control bytes, valid UTF-8, numbers in
// JSON syntax that parse in range (integers for int fields), nothing
// but whitespace after the object, and a task set that validates. On
// false, req holds a partial decode for the caller to discard.
func decodeFast(body []byte, req *Request) bool {
	d := decoder{b: body}
	if !d.request(req) {
		return false
	}
	d.space()
	if d.i != len(d.b) {
		return false
	}
	return req.TaskSet == nil || req.TaskSet.Validate() == nil
}

// Member keys of each object in the grammar; the index of a key is its
// bit in the object's seen mask.
var (
	requestKeys = []string{"task_set", "m", "k", "schemes", "backend", "timeout_ms", "require_full", "tag"}
	taskSetKeys = []string{"tasks"}
	taskKeys    = []string{"id", "name", "wcet", "period", "crit"}
)

// decoder is a cursor over one body.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) request(req *Request) bool {
	if !d.open('{') {
		return false
	}
	var seen uint32
	for {
		f, ok := d.member(requestKeys, &seen)
		if !ok {
			return false
		}
		switch f { // an index into requestKeys
		case -1:
			return true
		case 0:
			req.TaskSet, ok = d.taskSet()
		case 1:
			req.M, ok = d.int()
		case 2:
			req.K, ok = d.int()
		case 3:
			req.Schemes, ok = d.schemes()
		case 4:
			req.Backend, ok = d.text()
		case 5:
			req.TimeoutMS, ok = d.int()
		case 6:
			req.RequireFull, ok = d.bool()
		case 7:
			req.Tag, ok = d.text()
		}
		if !ok {
			return false
		}
	}
}

func (d *decoder) taskSet() (*mc.TaskSet, bool) {
	if !d.open('{') {
		return nil, false
	}
	// Slabs sized at one task per 64 body bytes and one WCET per 24
	// hold a marshalled set of full-precision parameters (about 100
	// bytes per task at K=4) in one allocation each; append covers
	// denser bodies.
	ts := mc.NewTaskSetCap(len(d.b)/64 + 1)
	wcet := make([]float64, 0, len(d.b)/24+1)
	var seen uint32
	for {
		f, ok := d.member(taskSetKeys, &seen)
		switch {
		case !ok:
			return nil, false
		case f == -1:
			// Each task's WCET aliased the slab as it stood when the
			// task was read; re-point them all at the final slab, in
			// order, keeping only their lengths. The three-index
			// slices stop an append through one task reaching the
			// next.
			off := 0
			for i := range ts.Tasks {
				n := len(ts.Tasks[i].WCET)
				ts.Tasks[i].WCET = wcet[off : off+n : off+n]
				off += n
			}
			return ts, true
		}
		if !d.open('[') {
			return nil, false
		}
		for n := 0; ; n++ {
			more, ok := d.element(n)
			if !ok {
				return nil, false
			}
			if !more {
				break
			}
			if wcet, ok = d.task(ts, wcet); !ok {
				return nil, false
			}
		}
	}
}

// task decodes one task object, appending it to ts and its WCET vector
// to the slab.
func (d *decoder) task(ts *mc.TaskSet, slab []float64) ([]float64, bool) {
	if !d.open('{') {
		return slab, false
	}
	var t mc.Task
	var seen uint32
	for {
		f, ok := d.member(taskKeys, &seen)
		if !ok {
			return slab, false
		}
		switch f { // an index into taskKeys
		case -1:
			ts.Tasks = append(ts.Tasks, t)
			return slab, true
		case 0:
			t.ID, ok = d.int()
		case 1:
			t.Name, ok = d.text()
		case 2:
			start := len(slab)
			if slab, ok = d.floats(slab); ok {
				t.WCET = slab[start:]
			}
		case 3:
			t.Period, ok = d.float()
		case 4:
			t.Crit, ok = d.int()
		}
		if !ok {
			return slab, false
		}
	}
}

// floats appends a JSON array of numbers to dst.
func (d *decoder) floats(dst []float64) ([]float64, bool) {
	if !d.open('[') {
		return dst, false
	}
	for n := 0; ; n++ {
		more, ok := d.element(n)
		if !ok || !more {
			return dst, ok
		}
		v, ok := d.float()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
	}
}

func (d *decoder) schemes() ([]string, bool) {
	if !d.open('[') {
		return nil, false
	}
	out := make([]string, 0, len(partition.Schemes))
	for n := 0; ; n++ {
		more, ok := d.element(n)
		if !ok || !more {
			return out, ok
		}
		s, ok := d.text()
		if !ok {
			return nil, false
		}
		out = append(out, s)
	}
}

// open skips whitespace and consumes the opening delimiter c.
func (d *decoder) open(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// member advances to the next member of the object being read and
// returns the index of its key in keys, with the colon consumed, or -1
// at the object's closing brace. It reports false on a malformed
// separator and on an escaped, unknown or repeated key. The object's
// first member is the one read while seen is still zero.
func (d *decoder) member(keys []string, seen *uint32) (int, bool) {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == '}' {
		d.i++
		return -1, true
	}
	if *seen != 0 {
		if d.i == len(d.b) || d.b[d.i] != ',' {
			return 0, false
		}
		d.i++
	}
	key, ok := d.str()
	if !ok || !d.open(':') {
		return 0, false
	}
	for f, k := range keys {
		if string(key) == k {
			if *seen&(1<<f) != 0 {
				return 0, false
			}
			*seen |= 1 << f
			d.space()
			return f, true
		}
	}
	return 0, false
}

// element advances to element n of the array being read, reporting
// whether there is one (false at the closing bracket).
func (d *decoder) element(n int) (more, ok bool) {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == ']' {
		d.i++
		return false, true
	}
	if n > 0 {
		if d.i == len(d.b) || d.b[d.i] != ',' {
			return false, false
		}
		d.i++
		d.space()
	}
	return true, true
}

func (d *decoder) space() {
	i := d.i
	for i < len(d.b) && (d.b[i] == ' ' || d.b[i] == '\t' || d.b[i] == '\n' || d.b[i] == '\r') {
		i++
	}
	d.i = i
}

// str scans a string without escapes or control bytes and returns its
// contents, which alias the body. Invalid UTF-8 is refused, since
// encoding/json would replace it.
func (d *decoder) str() ([]byte, bool) {
	d.space()
	if d.i == len(d.b) || d.b[d.i] != '"' {
		return nil, false
	}
	start := d.i + 1
	ascii := true
	for j := start; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			d.i = j + 1
			s := d.b[start:j]
			return s, ascii || utf8.Valid(s)
		case c < 0x20 || c == '\\':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

func (d *decoder) text() (string, bool) {
	s, ok := d.str()
	return string(s), ok
}

func (d *decoder) bool() (bool, bool) {
	d.space()
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += 5
		return false, true
	}
	return false, false
}

// number scans a number in JSON syntax,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its
// bytes and whether it is an integer (no fraction or exponent).
func (d *decoder) number() (num []byte, integer, ok bool) {
	d.space()
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if j := i; skipDigits(b, &i) == j {
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if j := i; skipDigits(b, &i) == j {
			return nil, false, false
		}
		integer = false
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := i; skipDigits(b, &i) == j {
			return nil, false, false
		}
		integer = false
	}
	d.i = i
	return b[start:i], integer, true
}

// skipDigits advances *i past a run of decimal digits in b and returns
// the new index.
func skipDigits(b []byte, i *int) int {
	j := *i
	for j < len(b) && b[j]-'0' < 10 {
		j++
	}
	*i = j
	return j
}

// float parses a number as encoding/json does for a float64 field; an
// out-of-range value is refused, as encoding/json refuses it.
func (d *decoder) float() (float64, bool) {
	num, _, ok := d.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(num), 64)
	return v, err == nil
}

// int parses an integer as encoding/json does for an int field.
func (d *decoder) int() (int, bool) {
	num, integer, ok := d.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.Atoi(string(num))
	return v, err == nil
}
