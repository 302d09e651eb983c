package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"catpa/internal/obs"
	"catpa/internal/partition"

	// The daemon serves every registered analysis backend.
	_ "catpa/internal/fpamc" // registers the amcrtb backend
)

// Config tunes the admission daemon. The zero value selects sane
// defaults for every field.
type Config struct {
	// QueueDepth bounds the admission queue; a full queue sheds load
	// with 429 + Retry-After. Default 256.
	QueueDepth int

	// Workers is the number of evaluation workers, each owning its own
	// pooled Partitioners. Default GOMAXPROCS.
	Workers int

	// DegradeWatermark is the queue depth at or above which requests
	// downgrade to the probe-only Screen. Default 3·QueueDepth/4;
	// negative disables degradation (overload then sheds with 429
	// only).
	DegradeWatermark int

	// RequestTimeout is the server-wide per-request deadline; a
	// request's timeout_ms can tighten but never extend it.
	// Default 2s.
	RequestTimeout time.Duration

	// PartialGrace is how long the handler waits after a deadline
	// fires for the worker to surface the partial verdict it holds.
	// Default 50ms.
	PartialGrace time.Duration

	// RetryAfter is the hint returned with shed (429) responses.
	// Default 1s.
	RetryAfter time.Duration

	// CacheSize bounds the verdict cache; 0 selects 1024 and negative
	// disables caching.
	CacheSize int

	// MaxBodyBytes bounds request bodies. Default 1 MiB.
	MaxBodyBytes int64

	// MaxTasks and MaxCores bound accepted requests. Defaults 10000
	// and 1024.
	MaxTasks int
	MaxCores int

	// Metrics optionally receives the daemon's counters; nil runs
	// uninstrumented.
	Metrics *obs.Registry

	// Hooks is the chaos-test fault-injection seam; nil in production.
	Hooks *Hooks
}

// withDefaults resolves every zero field.
func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.DegradeWatermark < 0:
		// Degradation off: the watermark sits above every reachable
		// queue depth.
		c.DegradeWatermark = c.QueueDepth + 1
	case c.DegradeWatermark == 0:
		c.DegradeWatermark = 3 * c.QueueDepth / 4
		if c.DegradeWatermark < 1 {
			c.DegradeWatermark = 1
		}
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.PartialGrace <= 0 {
		c.PartialGrace = 50 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxTasks <= 0 {
		c.MaxTasks = 10000
	}
	if c.MaxCores <= 0 {
		c.MaxCores = 1024
	}
	return c
}

// metrics is the daemon's observability surface; every name is
// registered exactly once here. A nil *metrics (no registry) is a
// no-op via the obs nil-receiver contract.
type metrics struct {
	requests  *obs.Counter   // serve.requests.total
	admitted  *obs.Counter   // serve.requests.admitted
	rejected  *obs.Counter   // serve.requests.rejected
	uncertain *obs.Counter   // serve.requests.uncertain
	shed      *obs.Counter   // serve.requests.shed
	degraded  *obs.Counter   // serve.requests.degraded
	partial   *obs.Counter   // serve.requests.partial
	cached    *obs.Counter   // serve.requests.cached
	badReq    *obs.Counter   // serve.requests.invalid
	panics    *obs.Counter   // serve.panics.recovered
	depth     *obs.Gauge     // serve.queue.depth
	latency   *obs.Histogram // serve.request.seconds
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return &metrics{}
	}
	return &metrics{
		requests:  reg.Counter("serve.requests.total"),
		admitted:  reg.Counter("serve.requests.admitted"),
		rejected:  reg.Counter("serve.requests.rejected"),
		uncertain: reg.Counter("serve.requests.uncertain"),
		shed:      reg.Counter("serve.requests.shed"),
		degraded:  reg.Counter("serve.requests.degraded"),
		partial:   reg.Counter("serve.requests.partial"),
		cached:    reg.Counter("serve.requests.cached"),
		badReq:    reg.Counter("serve.requests.invalid"),
		panics:    reg.Counter("serve.panics.recovered"),
		depth:     reg.Gauge("serve.queue.depth"),
		latency:   reg.Histogram("serve.request.seconds", nil),
	}
}

// workItem carries one queued admission job to a worker. done is
// buffered (capacity 1) so a worker can always publish its verdict
// without blocking, even after the handler gave up.
type workItem struct {
	ctx  context.Context
	job  *admitJob
	done chan *Response
}

// Server is the admission-control daemon: an http.Handler exposing
// POST /v1/admit plus /healthz, /readyz and /metricz. See the package
// comment for the robustness layers.
type Server struct {
	cfg   Config
	met   *metrics
	cache *verdictCache
	jobs  chan *workItem

	ready    atomic.Bool
	draining chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	mux      *http.ServeMux
}

// NewServer builds the daemon and starts its worker pool. Call
// Shutdown to drain it.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		met:      newMetrics(cfg.Metrics),
		cache:    newVerdictCache(cfg.CacheSize),
		jobs:     make(chan *workItem, cfg.QueueDepth),
		draining: make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/admit", s.handleAdmit)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/metricz", obs.Handler(cfg.Metrics))
	s.ready.Store(true)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP dispatches through the recovery middleware: a panic while
// serving any request — including one injected by the chaos hooks —
// is recovered, counted, and answered with 500; the daemon keeps
// serving.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Inc()
			writeJSON(w, http.StatusInternalServerError, &Response{
				Verdict: VerdictUncertain,
				Error:   fmt.Sprintf("internal error: %v", rec),
			})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// Shutdown gracefully drains the daemon: /readyz flips to 503, new
// admissions are refused, queued work is finished, then the workers
// exit. It returns ctx.Err() if the drain outlives ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	s.stopOnce.Do(func() { close(s.draining) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Ready reports whether the daemon is accepting admissions.
func (s *Server) Ready() bool { return s.ready.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.met.requests.Inc()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, &Response{
			Verdict: VerdictUncertain,
			Error:   "use POST",
		})
		return
	}
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, &Response{
			Verdict: VerdictUncertain,
			Error:   "draining: not accepting admissions",
		})
		return
	}
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.met.badReq.Inc()
		writeJSON(w, http.StatusBadRequest, &Response{
			Verdict: VerdictUncertain,
			Error:   fmt.Sprintf("bad request body: %v", err),
		})
		return
	}
	job, err := normalize(req, s.cfg.MaxTasks, s.cfg.MaxCores)
	if err != nil {
		s.met.badReq.Inc()
		writeJSON(w, http.StatusBadRequest, &Response{
			Verdict: VerdictUncertain,
			Tag:     req.Tag,
			Error:   err.Error(),
		})
		return
	}
	s.cfg.Hooks.inHandler(job.tag)

	key := cacheKey{job.hash, job.m, job.k, job.backend, job.schemeNames()}
	if hit := s.cache.get(key); hit != nil {
		s.met.cached.Inc()
		resp := *hit // shallow copy; cached entries are read-only
		resp.Cached = true
		resp.Tag = job.tag
		s.respond(w, http.StatusOK, &resp, start)
		return
	}

	// Every deadline descends from r.Context(): client disconnects and
	// server timeouts share one cancellation path.
	timeout := s.cfg.RequestTimeout
	if job.timeout > 0 && job.timeout < timeout {
		timeout = job.timeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Past the watermark, degradable requests answer from the
	// probe-only screen; require_full requests press on to the queue
	// and take the 429 when it is full.
	if len(s.jobs) >= s.cfg.DegradeWatermark && !job.requireFull {
		s.met.degraded.Inc()
		s.respond(w, http.StatusOK, s.degradedResponse(job), start)
		return
	}

	it := &workItem{ctx: ctx, job: job, done: make(chan *Response, 1)}
	select {
	case s.jobs <- it:
		s.met.depth.Set(float64(len(s.jobs)))
	default:
		s.met.shed.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, &Response{
			Verdict: VerdictUncertain,
			Tag:     job.tag,
			Error:   "admission queue full: retry later",
		})
		return
	}

	select {
	case resp := <-it.done:
		s.finish(w, key, resp, start)
	case <-ctx.Done():
		// The worker may be holding a partial verdict at a scheme
		// boundary; give it a grace window to publish before answering
		// with a bare timeout.
		t := time.NewTimer(s.cfg.PartialGrace)
		defer t.Stop()
		select {
		case resp := <-it.done:
			s.finish(w, key, resp, start)
		case <-t.C:
			s.met.partial.Inc()
			writeJSON(w, http.StatusGatewayTimeout, &Response{
				Verdict: VerdictUncertain,
				Partial: true,
				Tag:     job.tag,
				Error:   "deadline exceeded before any verdict",
			})
		}
	}
}

// finish routes a worker verdict to the client, updating the cache and
// per-verdict counters.
func (s *Server) finish(w http.ResponseWriter, key cacheKey, resp *Response, start time.Time) {
	status := http.StatusOK
	switch {
	case resp.Error != "":
		status = http.StatusInternalServerError
	case resp.Partial:
		s.met.partial.Inc()
	default:
		// Only complete, healthy verdicts enter the cache; the stored
		// copy drops the request-specific tag.
		c := *resp
		c.Tag = ""
		s.cache.put(key, &c)
	}
	switch resp.Verdict {
	case VerdictAdmitted:
		s.met.admitted.Inc()
	case VerdictRejected:
		s.met.rejected.Inc()
	default:
		s.met.uncertain.Inc()
	}
	s.respond(w, status, resp, start)
}

func (s *Server) respond(w http.ResponseWriter, status int, resp *Response, start time.Time) {
	s.met.latency.Observe(time.Since(start))
	writeJSON(w, status, resp)
}

// degradedResponse is the load-shedding tier: a probe-only screen that
// answers in microseconds. It can certify rejects but never admits —
// admission always requires the full backend analysis.
func (s *Server) degradedResponse(job *admitJob) *Response {
	resp := &Response{
		Degraded:    true,
		Tag:         job.tag,
		TaskSetHash: fmt.Sprintf("%016x", job.hash),
	}
	v, reason := Screen(job.ts, job.m, job.k)
	if v == ScreenReject {
		resp.Verdict = VerdictRejected
		resp.Reason = reason
		return resp
	}
	resp.Verdict = VerdictUncertain
	resp.Reason = "degraded mode: utilization screen could not certify a reject; retry for full analysis"
	return resp
}

// worker consumes admission jobs on pooled Partitioners (one per
// analysis backend, reused via Reset so steady-state evaluation stays
// allocation-free). It exits only when the daemon drains.
func (s *Server) worker() {
	defer s.wg.Done()
	pool := make(map[string]*partition.Partitioner)
	for {
		select {
		case it := <-s.jobs:
			s.met.depth.Set(float64(len(s.jobs)))
			s.serveJob(pool, it)
		case <-s.draining:
			for {
				select {
				case it := <-s.jobs:
					s.serveJob(pool, it)
				default:
					return
				}
			}
		}
	}
}

// serveJob runs one admission job inside the per-request panic
// quarantine and always publishes exactly one response on it.done.
func (s *Server) serveJob(pool map[string]*partition.Partitioner, it *workItem) {
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Inc()
			// The quarantined Partitioner's internal state is suspect;
			// drop it so the next job on this backend starts fresh.
			delete(pool, it.job.backend)
			it.done <- &Response{
				Verdict: VerdictUncertain,
				Tag:     it.job.tag,
				Error:   fmt.Sprintf("internal error: admission evaluation panicked: %v", rec),
			}
		}
	}()
	it.done <- s.evaluate(it.ctx, pool, it.job)
}

// evaluate runs the job's schemes on the pooled Partitioner for its
// backend, honoring ctx between schemes; on expiry it returns the
// partial verdict batch completed so far.
func (s *Server) evaluate(ctx context.Context, pool map[string]*partition.Partitioner, job *admitJob) *Response {
	resp := &Response{
		Verdict:     VerdictUncertain,
		Tag:         job.tag,
		TaskSetHash: fmt.Sprintf("%016x", job.hash),
	}
	if ctx.Err() != nil {
		resp.Partial = true
		resp.Reason = "deadline expired while queued"
		return resp
	}
	s.cfg.Hooks.beforeEvaluate(job.tag)
	p := pool[job.backend]
	if p == nil {
		be, err := partition.NewBackend(job.backend)
		if err != nil {
			resp.Error = fmt.Sprintf("backend %q vanished from the registry", job.backend)
			return resp
		}
		p = partition.NewWithBackend(job.m, job.k, be)
		pool[job.backend] = p
	} else {
		p.Reset(job.m, job.k)
	}
	verdicts := make([]Verdict, 0, len(job.schemes))
	firstAdmit := -1
	for i, scheme := range job.schemes {
		s.cfg.Hooks.duringEvaluate(job.tag, i)
		res, err := p.RunContext(ctx, job.ts, scheme, nil)
		if err != nil {
			resp.Partial = true
			break
		}
		v := Verdict{
			Scheme:   scheme.String(),
			Admitted: res.Feasible,
		}
		if res.Feasible {
			v.Usys = res.Usys
			v.Uavg = res.Uavg
			v.Imbalance = res.Imbalance
			if firstAdmit < 0 {
				firstAdmit = len(verdicts)
				// Result is owned by the Partitioner and recycled on the
				// next run; the response needs its own copy.
				v.Assignment = append([]int(nil), res.Assignment...)
			}
		}
		verdicts = append(verdicts, v)
	}
	resp.Verdicts = verdicts
	switch {
	case firstAdmit >= 0:
		// A completed admit stands even if later schemes timed out.
		resp.Admitted = true
		resp.Verdict = VerdictAdmitted
	case resp.Partial:
		resp.Verdict = VerdictUncertain
	default:
		resp.Verdict = VerdictRejected
		resp.Reason = fmt.Sprintf("no scheme of [%s] admits the set on m=%d cores under %s", job.schemeNames(), job.m, job.backend)
	}
	if resp.Partial {
		resp.Reason = fmt.Sprintf("deadline expired after %d of %d schemes", len(verdicts), len(job.schemes))
	}
	return resp
}

// writeJSON writes resp with the given status as indented JSON.
func writeJSON(w http.ResponseWriter, status int, resp *Response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}
