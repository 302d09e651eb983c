package main

import (
	"errors"
	"net/http"
	"testing"
	"time"
)

// fakeClock is one sender's virtual time: sleeping jumps forward to
// the wake-up time, and sending advances time by a scripted service
// duration.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

func runFake(t *testing.T, senders int, rate float64, service []time.Duration) []sample {
	t.Helper()
	clocks := make([]*fakeClock, senders)
	for s := range clocks {
		clocks[s] = &fakeClock{}
	}
	l := &openLoop{
		rate:     rate,
		n:        len(service),
		senders:  senders,
		clockFor: func(s int) clock { return clocks[s] },
		send: func(i int) {
			clocks[i%senders].t += service[i]
		},
	}
	return l.run()
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	ms := time.Millisecond
	// One sender, a request due every 10ms; the first reply stalls for
	// 35ms, so the next four requests go out late until the backlog
	// drains.
	out := runFake(t, 1, 100, []time.Duration{35 * ms, 2 * ms, 2 * ms, 2 * ms, 2 * ms, 2 * ms})
	want := []struct{ lag, lat time.Duration }{
		{0, 35 * ms},
		{25 * ms, 27 * ms},
		{17 * ms, 19 * ms},
		{9 * ms, 11 * ms},
		{1 * ms, 3 * ms},
		{0, 2 * ms},
	}
	for i, w := range want {
		if got := out[i].lag(); got != w.lag {
			t.Errorf("request %d: lag %v, want %v", i, got, w.lag)
		}
		if got := out[i].latency(); got != w.lat {
			t.Errorf("request %d: latency %v, want %v", i, got, w.lat)
		}
		// Timing from pickup would hide the stall: 2ms for requests 1-3.
		if i > 0 && out[i].done-out[i].sent != 2*ms {
			t.Errorf("request %d: service %v, want 2ms", i, out[i].done-out[i].sent)
		}
	}
}

func TestOpenLoopStallStaysOnItsSender(t *testing.T) {
	ms := time.Millisecond
	// Two senders at 100/s together: sender 0 owns the even requests
	// (due 0, 20, 40ms), sender 1 the odd ones (due 10, 30, 50ms).
	// Sender 0's first reply stalls for 50ms; sender 1 stays on time.
	service := []time.Duration{50 * ms, 1 * ms, 1 * ms, 1 * ms, 1 * ms, 1 * ms}
	out := runFake(t, 2, 100, service)
	wantLag := []time.Duration{0, 0, 30 * ms, 0, 11 * ms, 0}
	for i, w := range wantLag {
		if got := out[i].lag(); got != w {
			t.Errorf("request %d: lag %v, want %v", i, got, w)
		}
		if out[i].due != time.Duration(i)*10*ms {
			t.Errorf("request %d: due %v, want %v", i, out[i].due, time.Duration(i)*10*ms)
		}
	}
}

func TestClosedLoopSendsEachRequestOnce(t *testing.T) {
	calls := make([]int, 50)
	_, lat := closedLoop(2, len(calls), func(_, i int) {
		calls[i]++
	})
	if len(lat) != 50 {
		t.Errorf("%d latencies, want 50", len(lat))
	}
	for i, c := range calls {
		if c != 1 {
			t.Errorf("request %d sent %d times, want exactly once", i, c)
		}
	}
}

func TestVerifyCountsFailuresOnce(t *testing.T) {
	rep := &report{metrics: map[string]metric{}}
	items := []*admitItem{{}, {}, {}}
	xs := []exchange{
		{err: errors.New("connection reset")},
		{status: http.StatusTooManyRequests, body: []byte(`{"error":"queue full"}`)},
		{status: http.StatusOK, body: []byte(`{"degraded":true}`)},
	}
	verify(rep, "test", items, xs)
	if rep.attempted != 3 || rep.failed != 3 {
		t.Errorf("attempted=%d failed=%d, want 3 and 3", rep.attempted, rep.failed)
	}
	if len(rep.mismatches) != 0 {
		t.Errorf("failures reported as mismatches: %v", rep.mismatches)
	}
}
