package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"catpa/internal/mc"
	"catpa/internal/serve"
	"catpa/internal/taskgen"
)

func testSet(tb testing.TB) *mc.TaskSet {
	tb.Helper()
	cfg := taskgen.DefaultConfig()
	cfg.M, cfg.K, cfg.NSU = 4, 2, 0.5
	cfg.N = taskgen.IntRange{Lo: 16, Hi: 16}
	return taskgen.GenerateIndexed(&cfg, 11, 0)
}

// scriptServer answers each request with the next scripted status; a
// 200 carries an admitted verdict.
func scriptServer(tb testing.TB, script []int) (*httptest.Server, *atomic.Int64) {
	tb.Helper()
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(calls.Add(1)) - 1
		status := http.StatusOK
		if n < len(script) {
			status = script[n]
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		resp := serve.Response{Verdict: serve.VerdictUncertain, Error: "scripted failure"}
		if status == http.StatusOK {
			resp = serve.Response{Admitted: true, Verdict: serve.VerdictAdmitted}
		}
		if err := json.NewEncoder(w).Encode(&resp); err != nil {
			tb.Errorf("encode: %v", err)
		}
	}))
	tb.Cleanup(hs.Close)
	return hs, &calls
}

func newClient(tb testing.TB, hs *httptest.Server, cfg Config) *Client {
	tb.Helper()
	cfg.BaseURL = hs.URL
	cfg.HTTPClient = hs.Client()
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = 5 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return c
}

func TestAdmitRetriesTransientFailures(t *testing.T) {
	hs, calls := scriptServer(t, []int{http.StatusServiceUnavailable, http.StatusInternalServerError})
	var seen []int
	var mu sync.Mutex
	c := newClient(t, hs, Config{OnAttempt: func(status int) {
		mu.Lock()
		seen = append(seen, status)
		mu.Unlock()
	}})
	resp, attempts, err := c.Admit(context.Background(), &serve.Request{})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if !resp.Admitted || attempts != 3 || calls.Load() != 3 {
		t.Errorf("resp=%+v attempts=%d calls=%d", resp, attempts, calls.Load())
	}
	want := []int{503, 500, 200}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(want) {
		t.Fatalf("observer saw %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("observer[%d] = %d, want %d", i, seen[i], want[i])
		}
	}
}

func TestAdmitDoesNotRetryClientErrors(t *testing.T) {
	hs, calls := scriptServer(t, []int{http.StatusBadRequest})
	c := newClient(t, hs, Config{})
	_, attempts, err := c.Admit(context.Background(), &serve.Request{})
	if err == nil || attempts != 1 || calls.Load() != 1 {
		t.Fatalf("err=%v attempts=%d calls=%d", err, attempts, calls.Load())
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Errorf("error %v is not a 400 StatusError", err)
	}
	if se.Resp == nil || se.Resp.Error != "scripted failure" {
		t.Errorf("StatusError body %+v", se.Resp)
	}
}

func TestAdmitGivesUpAfterMaxAttempts(t *testing.T) {
	hs, calls := scriptServer(t, []int{503, 503, 503, 503, 503, 503})
	c := newClient(t, hs, Config{MaxAttempts: 3})
	_, attempts, err := c.Admit(context.Background(), &serve.Request{})
	if err == nil || attempts != 3 || calls.Load() != 3 {
		t.Fatalf("err=%v attempts=%d calls=%d", err, attempts, calls.Load())
	}
}

func TestAdmitHonorsRetryAfterOnShed(t *testing.T) {
	hs, _ := scriptServer(t, []int{http.StatusTooManyRequests})
	c := newClient(t, hs, Config{})
	// The daemon said "come back in 1s" but the caller only has
	// ~50ms of budget: the client must fail fast, not sleep through
	// the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.Admit(ctx, &serve.Request{})
	if err == nil {
		t.Fatal("expected a budget failure")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("client slept %v into a 50ms budget", elapsed)
	}
}

func TestAdmitDeadlineBudgetExhaustion(t *testing.T) {
	hs, _ := scriptServer(t, []int{503, 503, 503, 503})
	c := newClient(t, hs, Config{
		MaxAttempts: 10,
		BaseBackoff: 40 * time.Millisecond,
		MaxBackoff:  40 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	_, attempts, err := c.Admit(ctx, &serve.Request{})
	if err == nil {
		t.Fatal("expected deadline exhaustion")
	}
	if attempts >= 10 {
		t.Errorf("spent all %d attempts despite a 60ms budget", attempts)
	}
}

func TestBackoffJitterIsCappedAndDeterministic(t *testing.T) {
	mk := func() *Client {
		c, err := New(Config{BaseURL: "http://x", BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	for attempt := 0; attempt < 12; attempt++ {
		da := a.backoff(attempt, nil)
		if db := b.backoff(attempt, nil); da != db {
			t.Fatalf("attempt %d: same seed diverged (%v vs %v)", attempt, da, db)
		}
		if da < 0 || da > 80*time.Millisecond {
			t.Errorf("attempt %d: backoff %v outside [0, cap]", attempt, da)
		}
	}
	// A shed's Retry-After overrides jitter entirely.
	shed := &StatusError{Status: http.StatusTooManyRequests, retryAfter: 3 * time.Second}
	if got := a.backoff(0, shed); got != 3*time.Second {
		t.Errorf("Retry-After backoff = %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty BaseURL")
	}
}

// TestClientAgainstRealDaemon closes the loop: the retrying client
// talking to the real serve.Server, shed until the queue drains.
func TestClientAgainstRealDaemon(t *testing.T) {
	s := serve.NewServer(serve.Config{})
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	c, err := New(Config{BaseURL: hs.URL, HTTPClient: hs.Client()})
	if err != nil {
		t.Fatal(err)
	}
	resp, attempts, err := c.Admit(context.Background(), &serve.Request{TaskSet: testSet(t), M: 4, Tag: "e2e"})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if attempts != 1 || resp.Tag != "e2e" || resp.Verdict == "" {
		t.Errorf("attempts=%d resp=%+v", attempts, resp)
	}
}

func TestRunLoadAgainstRealDaemon(t *testing.T) {
	s := serve.NewServer(serve.Config{})
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	c, err := New(Config{BaseURL: hs.URL, HTTPClient: hs.Client()})
	if err != nil {
		t.Fatal(err)
	}
	ts := testSet(t)
	rep, err := RunLoad(context.Background(), LoadConfig{
		Client:   c,
		Corpus:   []*serve.Request{{TaskSet: ts, M: 4}, {TaskSet: ts, M: 1}},
		RPS:      200,
		Duration: 250 * time.Millisecond,
		Conns:    8,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Offered == 0 || rep.Attempts == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if got := rep.Admitted + rep.Rejected + rep.Uncertain + rep.Failed; got != rep.Offered {
		t.Errorf("outcomes %d != offered %d", got, rep.Offered)
	}
	if rep.P50MS > rep.P95MS+1e-9 || rep.P95MS > rep.P99MS+1e-9 || rep.P99MS > rep.MaxMS+1e-9 {
		t.Errorf("percentiles not monotone: %+v", rep)
	}
	if rep.Failed > 0 {
		t.Errorf("healthy daemon failed %d requests", rep.Failed)
	}
}

// TestRunLoadTimesFromDueTime: with one sender, a stalled first reply
// holds up the request queued behind it, and that request's latency
// must include the wait. Timed from pickup it would read as a fast
// reply and the median below would be about a millisecond.
func TestRunLoadTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&serve.Response{Admitted: true, Verdict: serve.VerdictAdmitted})
	}))
	defer hs.Close()
	c := newClient(t, hs, Config{})
	// Ticks every 20ms for 250ms: the first request stalls, the second
	// waits in the one-slot hand-off, those due during the stall are
	// dropped, and at most one more arrives after it.
	rep, err := RunLoad(context.Background(), LoadConfig{
		Client:        c,
		Corpus:        []*serve.Request{{TaskSet: testSet(t), M: 4}},
		RPS:           50,
		Duration:      250 * time.Millisecond,
		Conns:         1,
		RequestBudget: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if sent := rep.Offered - rep.Failed; sent < 2 || sent > 3 {
		t.Fatalf("%d of %d offered requests were sent, want 2 or 3: %+v", sent, rep.Offered, rep)
	}
	if min := float64(stall/2) / float64(time.Millisecond); rep.P50MS < min {
		t.Errorf("median latency %.1fms hides the %v stall the queued request waited out", rep.P50MS, stall)
	}
}

func TestRunLoadValidation(t *testing.T) {
	c, err := New(Config{BaseURL: "http://x"})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]LoadConfig{
		"no client":   {Corpus: []*serve.Request{{}}, RPS: 1, Duration: time.Second},
		"no corpus":   {Client: c, RPS: 1, Duration: time.Second},
		"no rate":     {Client: c, Corpus: []*serve.Request{{}}, Duration: time.Second},
		"no duration": {Client: c, Corpus: []*serve.Request{{}}, RPS: 1},
	} {
		if _, err := RunLoad(context.Background(), cfg); err == nil {
			t.Errorf("%s: RunLoad accepted a bad config", name)
		}
	}
}

func TestPercentileMS(t *testing.T) {
	sorted := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
	cases := []struct {
		p    int
		want float64
	}{{50, 2}, {95, 4}, {99, 4}, {1, 1}, {100, 4}}
	for _, tc := range cases {
		if got := percentileMS(sorted, tc.p); got != tc.want {
			t.Errorf("p%d = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentileMS(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}
