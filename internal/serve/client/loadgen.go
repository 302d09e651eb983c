package client

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"catpa/internal/serve"
)

// LoadConfig drives one open-loop load run: requests are offered at a
// fixed rate regardless of how fast the daemon answers (the wrk
// model), so queue growth, shedding and degradation show up as they
// would in production rather than being absorbed by a closed loop
// slowing down.
type LoadConfig struct {
	// Client posts the requests (its retry policy is part of the
	// system under test).
	Client *Client

	// Corpus holds the admission requests to offer, round-robin.
	Corpus []*serve.Request

	// RPS is the offered load in requests per second.
	RPS float64

	// Duration bounds the run.
	Duration time.Duration

	// Conns is the number of concurrent senders draining the offer
	// queue. Default 16.
	Conns int

	// RequestBudget is each request's end-to-end deadline (retries
	// included). Default 1s.
	RequestBudget time.Duration
}

// LoadReport summarizes one load run. All rates are fractions of
// Offered.
type LoadReport struct {
	OfferedRPS float64 `json:"offered_rps"`
	DurationS  float64 `json:"duration_s"`
	Offered    int     `json:"offered"`

	// Final request outcomes (after retries).
	Admitted  int `json:"admitted"`
	Rejected  int `json:"rejected"`
	Uncertain int `json:"uncertain"`
	Failed    int `json:"failed"`

	// Response flavors among completed requests.
	Degraded int `json:"degraded"`
	Partial  int `json:"partial"`
	Cached   int `json:"cached"`

	// Per-attempt observations (retries visible).
	Attempts int `json:"attempts"`
	Shed429  int `json:"shed_429"`
	Err5xx   int `json:"err_5xx"`

	DegradedRate float64 `json:"degraded_rate"`
	ShedRate     float64 `json:"shed_rate"`

	// End-to-end latency percentiles in milliseconds, timed from each
	// request's due time on the offer clock (so a request queued
	// behind a stalled sender counts its wait), retries and backoff
	// included.
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
}

// RunLoad offers cfg.Corpus at cfg.RPS for cfg.Duration and reports
// outcome counts and latency percentiles. The attempt counters are
// collected through the client's OnAttempt observer, which RunLoad
// installs; an already-installed observer is chained.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	switch {
	case cfg.Client == nil:
		return nil, fmt.Errorf("client: RunLoad needs a Client")
	case len(cfg.Corpus) == 0:
		return nil, fmt.Errorf("client: RunLoad needs a request corpus")
	case cfg.RPS <= 0 || cfg.Duration <= 0:
		return nil, fmt.Errorf("client: RunLoad needs positive RPS and Duration")
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 16
	}
	if cfg.RequestBudget <= 0 {
		cfg.RequestBudget = time.Second
	}

	rep := &LoadReport{OfferedRPS: cfg.RPS, DurationS: cfg.Duration.Seconds()}
	var mu sync.Mutex
	var latencies []time.Duration

	prev := cfg.Client.cfg.OnAttempt
	cfg.Client.cfg.OnAttempt = func(status int) {
		mu.Lock()
		rep.Attempts++
		switch {
		case status == http.StatusTooManyRequests:
			rep.Shed429++
		case status >= 500:
			rep.Err5xx++
		}
		mu.Unlock()
		if prev != nil {
			prev(status)
		}
	}
	defer func() { cfg.Client.cfg.OnAttempt = prev }()

	// An offer is one request and the time the offer clock made it
	// due: latency runs from there, not from when a sender picked the
	// request up, or a stall would hide the wait of the requests
	// queued behind it.
	type offer struct {
		req *serve.Request
		due time.Time
	}
	offers := make(chan offer, cfg.Conns)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range offers {
				rctx, cancel := context.WithTimeout(ctx, cfg.RequestBudget)
				resp, _, err := cfg.Client.Admit(rctx, o.req)
				cancel()
				elapsed := time.Since(o.due)
				mu.Lock()
				latencies = append(latencies, elapsed)
				switch {
				case err != nil:
					rep.Failed++
				case resp.Verdict == serve.VerdictAdmitted:
					rep.Admitted++
				case resp.Verdict == serve.VerdictRejected:
					rep.Rejected++
				default:
					rep.Uncertain++
				}
				if err == nil {
					if resp.Degraded {
						rep.Degraded++
					}
					if resp.Partial {
						rep.Partial++
					}
					if resp.Cached {
						rep.Cached++
					}
				}
				mu.Unlock()
			}
		}()
	}

	// The offer clock: one request per tick, due at the tick's
	// scheduled time; dropped ticks are still counted as offered so
	// overload cannot flatter the report.
	interval := time.Duration(float64(time.Second) / cfg.RPS)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	ticker := time.NewTicker(interval)
	stop := time.NewTimer(cfg.Duration)
	defer ticker.Stop()
	defer stop.Stop()
	next := 0
offer:
	for {
		select {
		case due := <-ticker.C:
			rep.Offered++
			select {
			case offers <- offer{cfg.Corpus[next%len(cfg.Corpus)], due}:
			default:
				// Every sender is busy and the hand-off buffer is
				// full: the request is offered but immediately lost,
				// exactly like a connection the server never accepted.
				mu.Lock()
				rep.Failed++
				mu.Unlock()
			}
			next++
		case <-stop.C:
			break offer
		case <-ctx.Done():
			break offer
		}
	}
	close(offers)
	wg.Wait()

	if rep.Offered > 0 {
		mu.Lock()
		rep.DegradedRate = float64(rep.Degraded) / float64(rep.Offered)
		rep.ShedRate = float64(rep.Shed429) / float64(rep.Offered)
		mu.Unlock()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50MS = percentileMS(latencies, 50)
	rep.P95MS = percentileMS(latencies, 95)
	rep.P99MS = percentileMS(latencies, 99)
	if n := len(latencies); n > 0 {
		rep.MaxMS = float64(latencies[n-1]) / float64(time.Millisecond)
	}
	if ctx.Err() != nil {
		return rep, ctx.Err()
	}
	return rep, nil
}

// percentileMS is the nearest-rank percentile of sorted durations, in
// milliseconds.
func percentileMS(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1]) / float64(time.Millisecond)
}
