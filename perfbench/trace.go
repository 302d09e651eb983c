package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around a public function of the module it names. Start and
// End are nanoseconds since the tracer's origin; Parent is the index
// of the enclosing span, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ReqID  int64  `json:"req"`
}

// layer is the module a span times: the part of its name before the
// first dot ("partition.Evaluate" belongs to partition).
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op returning -1, so the
// measured paths call it unconditionally at the cost of one branch.
// Spans may be opened from several goroutines.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, ReqID: req})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTimes is the self-time attribution of one root span: for every
// layer, the summed duration of its spans minus the part their
// children cover, and the root's own uncovered remainder.
type layerTimes struct {
	Wall         time.Duration
	Self         map[string]time.Duration
	Unattributed time.Duration
}

// attribute computes self times under the root span root. Children of
// one parent are assumed not to overlap (each benchmark goroutine
// opens its own root).
func (t *tracer) attribute(root int) layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	inTree := make([]bool, len(t.spans))
	inTree[root] = true
	for i := root + 1; i < len(t.spans); i++ {
		s := &t.spans[i]
		if s.Parent >= 0 && inTree[s.Parent] {
			inTree[i] = true
			covered[s.Parent] += s.End - s.Start
		}
	}
	lt := layerTimes{
		Wall: time.Duration(t.spans[root].End - t.spans[root].Start),
		Self: make(map[string]time.Duration),
	}
	lt.Unattributed = lt.Wall - time.Duration(covered[root])
	for i := root + 1; i < len(t.spans); i++ {
		if !inTree[i] {
			continue
		}
		s := &t.spans[i]
		lt.Self[s.layer()] += time.Duration(s.End - s.Start - covered[i])
	}
	return lt
}

// write stores every span as one JSON line in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report notes each layer's self time as a share of the wall time, in
// layer name order.
func (lt layerTimes) report(name string, out *report) {
	layers := make([]string, 0, len(lt.Self))
	for l := range lt.Self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	wall := float64(lt.Wall)
	for _, l := range layers {
		out.note(fmt.Sprintf("%s.self_share.%s", name, l), ratio(float64(lt.Self[l]), wall), "ratio")
	}
}

// meanMicros is the mean duration, in microseconds, of the spans named
// name opened at or after index from.
func (t *tracer) meanMicros(from int, name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum, n int64
	for i := from; i < len(t.spans); i++ {
		if s := &t.spans[i]; s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	return ratio(float64(sum), float64(n)) / 1e3
}

// tracedShares reports a traced phase's self-time attribution under
// root, its unattributed share, and the tracing overhead against the
// same work timed untraced.
func tracedShares(e *env, rep *report, root int, plain, traced time.Duration) {
	lt := e.tr.attribute(root)
	lt.report("trace", rep)
	rep.set("trace.unattributed_share", ratio(float64(lt.Unattributed), float64(lt.Wall)), "ratio")
	rep.set("trace.overhead_share", ratio(float64(traced-plain), float64(plain)), "ratio")
}

// attributeRoots sums the attribution of every root span named name
// opened at or after index from: the roots of concurrent goroutines,
// each attributed on its own.
func (t *tracer) attributeRoots(from int, name string) layerTimes {
	sum := layerTimes{Self: make(map[string]time.Duration)}
	for i := from; i < len(t.spans); i++ {
		if s := &t.spans[i]; s.Parent != -1 || s.Name != name {
			continue
		}
		lt := t.attribute(i)
		sum.Wall += lt.Wall
		sum.Unattributed += lt.Unattributed
		for l, d := range lt.Self {
			sum.Self[l] += d
		}
	}
	return sum
}
