package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the open-loop generator, so its lag
// accounting can be checked on a fake clock.
type clock interface {
	now() time.Duration // since the loop's origin
	sleepUntil(t time.Duration)
}

type realClock struct{ origin time.Time }

func (c *realClock) now() time.Duration { return time.Since(c.origin) }

// spinWindow is how long before a due time the generator stops
// sleeping and yields in a loop instead: timer wake-ups overshoot by
// a few hundred microseconds on a busy host, which would otherwise
// show up as generator lag in every latency.
const spinWindow = 400 * time.Microsecond

func (c *realClock) sleepUntil(t time.Duration) {
	if d := t - c.now() - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for c.now() < t {
		runtime.Gosched()
	}
}

// sample is one offered request: when it was due, when the generator
// actually sent it, and when the reply was in. Whether it succeeded is
// decided after timing, from the recorded reply.
type sample struct {
	due, sent, done time.Duration
}

// latency is the request's latency as its user saw it: from the moment
// it was due, so a stall also counts against the requests queued
// behind it.
func (s *sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator sent the request.
func (s *sample) lag() time.Duration { return s.sent - s.due }

// openLoop offers n requests at a fixed aggregate rate, whatever the
// replies do. Each of the senders owns every senders-th request and
// its own schedule, in the manner of wrk2: a slow reply delays the
// rest of its sender's requests (visible as lag and as latency from
// the due time) without delaying the other senders. There are no
// retries: a failed send is one failed sample.
type openLoop struct {
	rate    float64
	n       int
	senders int
	// clockFor returns sender s's clock; production senders share one
	// real clock and origin.
	clockFor func(s int) clock
	// send performs request i and records its reply.
	send func(i int)
}

func (l *openLoop) run() []sample {
	out := make([]sample, l.n)
	interval := time.Duration(float64(time.Second) / l.rate)
	var wg sync.WaitGroup
	for s := 0; s < l.senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			clk := l.clockFor(s)
			for i := s; i < l.n; i += l.senders {
				due := time.Duration(i) * interval
				clk.sleepUntil(due)
				sent := clk.now()
				l.send(i)
				out[i] = sample{due: due, sent: sent, done: clk.now()}
			}
		}(s)
	}
	wg.Wait()
	return out
}

// closedLoop runs n requests through callers goroutines, each sending
// its next request only once the previous reply is in; send gets the
// caller's index and the request's, and records the reply. Each
// request is sent exactly once: there are no retries. It returns the
// wall time and each request's latency.
func closedLoop(callers, n int, send func(caller, i int)) (time.Duration, []time.Duration) {
	lat := make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				send(c, i)
				lat[i] = time.Since(t0)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start), lat
}
