package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"time"

	"catpa/internal/mc"
	"catpa/internal/obs"
	"catpa/internal/partition"
	"catpa/internal/serve"
	"catpa/internal/taskgen"
)

// The admission corpus has the shape of the repository's earlier
// daemon load runs: 96-task sets at NSU 0.6 on 8 cores, with the
// paper's default K=4 levels, asking for all five schemes.
const (
	admitN   = 96
	admitM   = 8
	admitK   = 4
	admitNSU = 0.6
	// recentWindow bounds how far back a repeated request reaches; it
	// is far below the daemon's default cache size, so repeats hit.
	recentWindow = 32
	// warmupRequests are sent before any timing.
	warmupRequests = 100
	// ladderSets is the corpus sample of the traced layer ladder.
	ladderSets = 200
	// admitRounds is how many closed-loop rounds alternate with
	// open-loop segments; closedShare of the run goes to the closed
	// loop. Capacity drifts by a tenth or more from second to second
	// on a shared host, so it gets half the run, in short rounds whose
	// median spans all of it.
	admitRounds = 20
	closedShare = 0.5
)

// admitItem is one request body, encoded before timing starts, with
// the answer it must get: the set's hash and direct evaluation.
type admitItem struct {
	body []byte
	hash uint64
	want []partition.Eval
}

// admitCorpus generates admission requests from the seed. Fresh sets
// are numbered from next across phases, so no fresh set repeats within
// a run; a repeatShare of requests instead re-send one of the last
// recentWindow fresh sets.
type admitCorpus struct {
	e      *env
	cfg    taskgen.Config
	gen    *taskgen.Generator
	part   *partition.Partitioner
	rng    *rand.Rand
	names  []string
	next   int
	recent []*admitItem
	sets   []*mc.TaskSet // sample kept for the traced ladder
}

func newAdmitCorpus(e *env) *admitCorpus {
	cfg := taskgen.DefaultConfig()
	cfg.M, cfg.K, cfg.NSU = admitM, admitK, admitNSU
	cfg.N = taskgen.IntRange{Lo: admitN, Hi: admitN}
	return &admitCorpus{
		e:     e,
		cfg:   cfg,
		gen:   taskgen.NewGenerator(),
		part:  partition.New(admitM, admitK),
		rng:   rand.New(rand.NewSource(e.seed)),
		names: schemeNames(),
	}
}

// build returns the next n requests.
func (c *admitCorpus) build(n int) ([]*admitItem, error) {
	out := make([]*admitItem, n)
	tr := c.e.tr
	for i := range out {
		if len(c.recent) > 0 && c.rng.Float64() < c.e.repeatShare {
			out[i] = c.recent[c.rng.Intn(len(c.recent))]
			continue
		}
		id := tr.begin("taskgen.Generate", -1, int64(c.next))
		ts := c.gen.Generate(&c.cfg, c.e.seed, c.next)
		tr.end(id)
		c.next++
		body, err := json.Marshal(&serve.Request{TaskSet: ts, M: admitM, K: admitK, Schemes: c.names})
		if err != nil {
			return nil, err
		}
		it := &admitItem{
			body: body,
			hash: mc.TaskSetHash(ts),
			want: c.part.EvaluateAll(ts, partition.Schemes, nil, nil),
		}
		out[i] = it
		if len(c.recent) == recentWindow {
			copy(c.recent, c.recent[1:])
			c.recent = c.recent[:recentWindow-1]
		}
		c.recent = append(c.recent, it)
		if tr != nil && len(c.sets) < ladderSets {
			c.sets = append(c.sets, ts.Clone())
		}
	}
	return out, nil
}

// daemon is one mcserved process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	stderr bytes.Buffer
	ready  time.Duration // process start to the first 200 from /readyz
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return strconv.Itoa(ln.Addr().(*net.TCPAddr).Port), nil
}

// startDaemon starts mcserved with the benchmark's fixed flags and
// waits for it to report ready, retrying on another port if the
// chosen one was taken in between.
func startDaemon(e *env) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemon
		if d, err = tryStartDaemon(e); err == nil {
			return d, nil
		}
	}
	return nil, err
}

func tryStartDaemon(e *env) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://127.0.0.1:" + port, exited: make(chan struct{})}
	args := append([]string{"-addr", "127.0.0.1:" + port}, e.daemonFlags...)
	d.cmd = exec.Command(e.mcserved, args...)
	d.cmd.SysProcAttr = childAttr()
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = &d.stderr
	poll := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is read through stderr and exited
		close(d.exited)
	}()
	for time.Since(start) < 10*time.Second {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("mcserved exited before ready: %s", d.stderr.String())
		default:
		}
		resp, err := poll.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(start)
				return d, nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.stop()
	return nil, errors.New("mcserved not ready after 10s")
}

// stop drains the daemon with SIGINT and waits for it to exit, killing
// it if the drain takes longer than ten seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// metricz reads the daemon's counters.
func (d *daemon) metricz() (map[string]int64, error) {
	resp, err := http.Get(d.base + "/metricz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metricz: %w", err)
	}
	return snap.Counters, nil
}

// exchange is one request's raw outcome, decoded after timing.
type exchange struct {
	status int
	body   []byte
	err    error
}

// poster sends admission bodies over at most nproc connections, one
// attempt each: no retries.
type poster struct {
	url    string
	client *http.Client
}

func newPoster(d *daemon, conns int) *poster {
	return &poster{
		url: d.base + "/v1/admit",
		// The timeout only bounds a hung daemon; the daemon's own
		// request deadline is far shorter.
		client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
	}
}

func (p *poster) post(body []byte) exchange {
	resp, err := p.client.Post(p.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return exchange{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return exchange{status: resp.StatusCode, body: b, err: err}
}

// verify decodes every exchange and checks it against its item,
// counting failed operations.
func verify(rep *report, phase string, items []*admitItem, xs []exchange) {
	for i, x := range xs {
		rep.attempted++
		if x.err != nil {
			rep.failed++
			continue
		}
		var resp serve.Response
		if err := json.Unmarshal(x.body, &resp); err != nil {
			rep.mismatch("%s request %d: undecodable response (status %d): %v", phase, i, x.status, err)
			continue
		}
		if !checkResponse(rep, fmt.Sprintf("%s request %d", phase, i), x.status, &resp, items[i].hash, items[i].want) {
			rep.failed++
		}
	}
}

// runAdmit is the admit-loopback workload: an mcserved process on
// loopback, measured in a closed loop of nproc callers (capacity) and
// an open loop at the fixed offered rate (latency from each request's
// due time), every response checked afterwards.
func runAdmit(e *env, rep *report) error {
	if e.mcserved == "" {
		return errors.New("-mcserved is required")
	}
	// Set-up: process start to the first 200 from /readyz, median over
	// setupProbes starts, the last of which is the measured daemon.
	var readies []float64
	var d *daemon
	for i := 0; i < setupProbes; i++ {
		var err error
		if d, err = startDaemon(e); err != nil {
			return err
		}
		readies = append(readies, d.ready.Seconds())
		if i < setupProbes-1 {
			d.stop()
		}
	}
	defer d.stop()

	corpus := newAdmitCorpus(e)
	p := newPoster(d, e.nproc)
	warm, err := corpus.build(warmupRequests)
	if err != nil {
		return err
	}
	warmWall, _ := closedLoop(e.nproc, len(warm), func(_, i int) { p.post(warm[i].body) })
	perRound := int(float64(len(warm)) / warmWall.Seconds() * closedShare * e.seconds / admitRounds)
	if perRound < 50 {
		perRound = 50
	}

	// Closed-loop rounds alternate with open-loop segments, so both
	// sample the whole run.
	segment := int(e.openRPS * (1 - closedShare) * e.seconds / admitRounds)
	// A traced run adds a traced closed-loop round to each round, for
	// the tracing overhead against the untraced ones around it.
	var rates, tracedRates []float64
	var closedLat []time.Duration
	var samples []sample
	var segs [][]time.Duration
	for r := 0; r < admitRounds; r++ {
		rate, lat, err := closedRound(e, rep, corpus, p, perRound, r, nil)
		if err != nil {
			return err
		}
		rates = append(rates, rate)
		closedLat = append(closedLat, lat...)
		seg, err := openSegment(e, rep, corpus, p, segment, r)
		if err != nil {
			return err
		}
		samples = append(samples, seg...)
		segLat := make([]time.Duration, len(seg))
		for i := range seg {
			segLat[i] = seg[i].latency()
		}
		segs = append(segs, segLat)
		if e.traced() {
			rate, _, err := closedRound(e, rep, corpus, p, perRound, r, e.tr)
			if err != nil {
				return err
			}
			tracedRates = append(tracedRates, rate)
		}
	}
	capacity := median(rates)

	if e.traced() {
		lt := e.tr.attributeRoots(0, "loadgen.caller")
		lt.report("trace", rep)
		rep.set("trace.unattributed_share", ratio(float64(lt.Unattributed), float64(lt.Wall)), "ratio")
		traced := median(tracedRates)
		rep.set("trace.overhead_share", ratio(capacity-traced, traced), "ratio")
	}

	counters, err := d.metricz()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return err
	}

	lag := make([]float64, len(samples))
	for i := range samples {
		lag[i] = float64(samples[i].lag()) / float64(time.Millisecond)
	}
	lagSorted := sortedCopy(lag)
	lag50, _ := percentile(lagSorted, 50)
	lag99, _ := percentile(lagSorted, 99)
	rep.note("loadgen.lag_p50_ms", lag50, "ms")
	rep.note("loadgen.lag_p99_ms", lag99, "ms")
	rep.note("serve.cache_hit_ratio", ratio(float64(counters["serve.requests.cached"]), float64(counters["serve.requests.total"])), "ratio")
	rep.note("admit.closed_p50_ms", median(durationsMS(closedLat)), "ms")

	if !e.traced() {
		rep.note("fail_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
		rep.set("setup_s", median(readies), "s")
		rep.set("peak_rss_mb", rss, "MB")
		rep.set("throughput_per_s", capacity, "1/s")
		rep.note("admit.capacity_rps", capacity, "1/s")
		latencyMetrics(rep, "admit", segs)
		return nil
	}
	rep.set("fail_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.set("taskgen.generate_us", e.tr.meanMicros(0, "taskgen.Generate"), "us")
	if err := ladder(e, corpus.sets, admitM, admitK, rep); err != nil {
		return err
	}
	// The part of a loopback round trip that the in-process handler
	// does not account for: HTTP transport, loopback and the client.
	var sum time.Duration
	for _, l := range closedLat {
		sum += l
	}
	roundTripUS := float64(sum) / float64(len(closedLat)) / 1e3
	rep.note("admit.outside_handler_share", 1-rep.metrics["serve.handler_us"].Value/roundTripUS, "ratio")
	return nil
}

// closedRound sends n fresh-or-repeated requests through nproc
// callers and returns the completion rate and every request's latency.
// With tr non-nil, each caller is a root span and each of its round
// trips a child span.
func closedRound(e *env, rep *report, corpus *admitCorpus, p *poster, n, round int, tr *tracer) (float64, []time.Duration, error) {
	items, err := corpus.build(n)
	if err != nil {
		return 0, nil, err
	}
	xs := make([]exchange, len(items))
	callerRoots := make([]int, e.nproc)
	for c := range callerRoots {
		callerRoots[c] = tr.begin("loadgen.caller", -1, int64(c))
	}
	wall, lat := closedLoop(e.nproc, len(items), func(c, i int) {
		id := tr.begin("http.roundtrip", callerRoots[c], int64(i))
		xs[i] = p.post(items[i].body)
		tr.end(id)
	})
	for _, id := range callerRoots {
		tr.end(id)
	}
	verify(rep, fmt.Sprintf("closed-loop round %d", round), items, xs)
	return float64(len(items)) / wall.Seconds(), lat, nil
}

// openSegment offers n fresh-or-repeated requests at the fixed rate
// through nproc senders and returns their samples.
func openSegment(e *env, rep *report, corpus *admitCorpus, p *poster, n, round int) ([]sample, error) {
	items, err := corpus.build(n)
	if err != nil {
		return nil, err
	}
	xs := make([]exchange, n)
	origin := &realClock{}
	ol := &openLoop{
		rate:     e.openRPS,
		n:        n,
		senders:  e.nproc,
		clockFor: func(int) clock { return origin },
		send:     func(i int) { xs[i] = p.post(items[i].body) },
	}
	origin.origin = time.Now()
	samples := ol.run()
	verify(rep, fmt.Sprintf("open-loop segment %d", round), items, xs)
	return samples, nil
}
