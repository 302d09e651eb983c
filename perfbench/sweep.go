package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"catpa/internal/experiments"
	"catpa/internal/mc"
	"catpa/internal/obs"
	"catpa/internal/partition"
	"catpa/internal/runner"
	"catpa/internal/taskgen"
)

const (
	// fig1Sets is the population per NSU point of one measured fig1
	// sweep: 5 points x 1000 sets, about half a second on two workers.
	fig1Sets = 1000
	// setupProbes is how many set-ups one run measures; it reports the
	// median.
	setupProbes = 11
	// rounds is how many rounds an untraced run interleaves: each runs
	// measured sweeps and then replays one rounds-th of the sets, so
	// throughput and latency samples both span the whole run.
	rounds = 10
	// tracedUnits is how many sweeps a traced run makes for the stage
	// shares and allocation figures.
	tracedUnits = 3
	// sampleEvery picks the sets also checked against the one-shot
	// partition.Partition, and those lent to the layer ladder.
	sampleEvery = 16
)

// sweepUnit is one measured sweep through runner.Run with a checkpoint
// journal and a metrics registry — the way mcexp -checkpoint runs it.
type sweepUnit struct {
	rep  *runner.Report
	met  *runner.Metrics
	wall time.Duration
}

func runSweepUnit(e *env, sw *experiments.Sweep, name string, hook experiments.SetHook) (*sweepUnit, error) {
	start := time.Now()
	met := runner.NewMetricsFor(obs.NewRegistry(), sw)
	path := filepath.Join(e.tmp, name+".ckpt")
	rep, err := runner.Run(context.Background(), sw, &runner.Options{CheckpointPath: path, Metrics: met, Hook: hook})
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(path); err != nil {
		return nil, err
	}
	return &sweepUnit{rep: rep, met: met, wall: wall}, nil
}

// sweepSetup measures the set-up time of a sweep as a user meets it:
// from starting a process (this command in setup-probe mode) to the
// first set evaluation of a one-point sweep through runner.Run, which
// covers process start, package initialization, backend validation,
// checkpoint creation and worker start. It returns the median of
// setupProbes trials.
func sweepSetup(e *env) (float64, error) {
	xs := make([]float64, 0, setupProbes)
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "-setup-probe", "-workload", e.workload, "-seed", strconv.FormatInt(e.seed, 10), "-root", e.root)
		cmd.SysProcAttr = childAttr()
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		ready := time.Since(start)
		_, _ = io.Copy(io.Discard, stdout)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		if rerr != nil || line != "started\n" {
			return 0, fmt.Errorf("setup probe printed %q: %v", line, rerr)
		}
		xs = append(xs, ready.Seconds())
	}
	return median(xs), nil
}

// setupProbe is the child side of sweepSetup: it runs a one-point,
// nproc-set sweep of the workload and prints "started" when the first
// set evaluation begins.
func setupProbe(e *env) error {
	mk := map[string]func(*env) func() *experiments.Sweep{"fig1-sweep": fig1Sweep, "online-churn": onlineSweep}[e.workload]
	if mk == nil {
		return fmt.Errorf("no sweep set-up probe for %s", e.workload)
	}
	sw := mk(e)()
	sw.Values = sw.Values[:1]
	sw.Sets = e.nproc
	_, err := runSweepUnit(e, sw, "setup", &firstSet{})
	return err
}

// firstSet announces on stdout when the first set evaluation of a
// sweep starts.
type firstSet struct{ once sync.Once }

func (f *firstSet) BeforeSet(point, set int) {
	f.once.Do(func() { os.Stdout.WriteString("started\n") })
}

// acceptCounts extracts the exact per-(point, variant) accept counts.
func acceptCounts(res *experiments.Result) [][]int64 {
	out := make([][]int64, len(res.Points))
	for pi, p := range res.Points {
		out[pi] = make([]int64, len(p.Cells))
		for vi := range p.Cells {
			out[pi][vi] = p.Cells[vi].Sched.Hits()
		}
	}
	return out
}

// sameCounts compares two count tables, recording mismatches.
func sameCounts(rep *report, what string, want, got [][]int64, variants []experiments.Variant, sw *experiments.Sweep) {
	for pi := range want {
		for vi := range want[pi] {
			if got[pi][vi] != want[pi][vi] {
				rep.mismatch("%s: %s at %s=%v: %d, want %d", what, variants[vi], sw.Param, sw.Values[pi], got[pi][vi], want[pi][vi])
			}
		}
	}
}

// pointConfig reproduces a sweep point's generator configuration and
// heuristic options, as the experiments harness derives them.
func pointConfig(sw *experiments.Sweep, x float64) (taskgen.Config, partition.Options, experiments.Params) {
	p := experiments.DefaultParams()
	if sw.Apply != nil {
		sw.Apply(&p, x)
	}
	cfg := taskgen.DefaultConfig()
	cfg.M, cfg.K, cfg.NSU, cfg.IFC, cfg.N = p.M, p.K, p.NSU, p.IFC, p.N
	return cfg, partition.Options{Alpha: p.Alpha}, p
}

// backendName resolves a variant's backend.
func backendName(v experiments.Variant) string {
	if v.Backend == "" {
		return partition.DefaultBackend
	}
	return v.Backend
}

// sameEval reports whether two evaluations agree bitwise.
func sameEval(a, b partition.Eval) bool {
	return a.Feasible == b.Feasible && a.FailedTask == b.FailedTask &&
		sameFloats(a.Usys, b.Usys, a.Uavg, b.Uavg, a.Imbalance, b.Imbalance)
}

// sameFloats reports whether each pair (xs[0], xs[1]), (xs[2], xs[3]),
// ... is bitwise equal.
func sameFloats(xs ...float64) bool {
	for i := 0; i+1 < len(xs); i += 2 {
		if math.Float64bits(xs[i]) != math.Float64bits(xs[i+1]) {
			return false
		}
	}
	return true
}

// latencyMetrics reports a latency sample taken in segments spread
// over the run. The gated p50 and p75 are medians over the segments of
// each segment's own percentile, so a burst of hypervisor steal in a
// few segments does not move the run's figure. The gated tail is the
// p75 and not the p90 or p99: on a shared 2-vCPU host a few percent of
// steal stalls about a tenth of open-loop requests, which moved the
// p90 by a third and the p99 threefold while the p75 moved about a
// tenth. The p50, p90 and p99 of all samples pooled, the sample count
// and the number of samples beyond the p99 are printed beside them.
func latencyMetrics(rep *report, alias string, segs [][]time.Duration) {
	var all []time.Duration
	var p50s, p75s []float64
	for _, seg := range segs {
		ms := sortedCopy(durationsMS(seg))
		p50, _ := percentile(ms, 50)
		p75, _ := percentile(ms, 75)
		p50s, p75s = append(p50s, p50), append(p75s, p75)
		all = append(all, seg...)
	}
	rep.set("latency_p50_ms", median(p50s), "ms")
	rep.set("latency_p75_ms", median(p75s), "ms")
	rep.note(alias+".p50_ms", median(p50s), "ms")
	rep.note(alias+".p75_ms", median(p75s), "ms")
	ms := sortedCopy(durationsMS(all))
	p50, _ := percentile(ms, 50)
	p90, _ := percentile(ms, 90)
	p99, beyond := percentile(ms, 99)
	rep.note(alias+".pooled_p50_ms", p50, "ms")
	rep.note(alias+".pooled_p90_ms", p90, "ms")
	rep.note(alias+".p99_ms", p99, "ms")
	rep.note(alias+".samples", float64(len(ms)), "count")
	rep.note(alias+".samples_beyond_p99", float64(beyond), "count")
	rep.note(alias+".segments", float64(len(segs)), "count")
}

// runnerShares reports how a sweep's stage histograms (summed over its
// workers) and checkpoint writes divide its wall time.
func runnerShares(rep *report, u *sweepUnit, workers int) {
	snap := u.met.Snapshot()
	busy := float64(u.wall) * float64(workers)
	for _, stage := range []string{"generate", "partition", "analyze"} {
		h := snap.Histograms["sweep.stage."+stage+".seconds"]
		rep.note("sweep.stage."+stage+"_share", ratio(float64(h.SumNS), busy), "ratio")
	}
	w := snap.Histograms["checkpoint.write.seconds"]
	rep.note("checkpoint.write_share", ratio(float64(w.SumNS), float64(u.wall)), "ratio")
	rep.note("runner.flush_ms", ratio(float64(w.SumNS), float64(w.Count))/1e6, "ms")
}

// memDelta measures the allocation volume and GC cycles of f.
func memDelta(f func() error) (bytes uint64, gcs uint32, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.NumGC - a.NumGC, err
}

// replayer re-evaluates a sweep's sets directly on one goroutine, in
// chunks: run(chunk, of) handles the sets whose index over the whole
// sweep is congruent to chunk modulo of, across every point, so each
// chunk samples every point alike.
type replayer interface {
	run(chunk, of int) error
	// counts returns the exact count tables, indexed [point][variant],
	// under the same names as sweepWorkload.counts.
	counts() map[string][][]int64
	// latencies returns one sample per replayed set.
	latencies() []time.Duration
	// sample returns every sampleEvery-th set of a traced run, for the
	// layer ladder.
	sample() []*mc.TaskSet
}

// sweepWorkload is what the fig1-sweep and online-churn workloads
// differ in; runSweepWorkload is what they share.
type sweepWorkload struct {
	mk func() *experiments.Sweep
	// work counts a finished sweep's units of work: the throughput
	// numerator.
	work func(res *experiments.Result) int64
	// counts extracts the exact count tables the replay must reproduce.
	counts func(res *experiments.Result) map[string][][]int64
	// replayer builds a replayer whose calls are spans under root (-1:
	// untraced); efforts non-nil selects counting backends, one per
	// backend name. A replayer with a nil report skips its own checks.
	replayer func(sw *experiments.Sweep, rep *report, root int, efforts map[string]*effort) replayer
	// throughput and latency name the end-to-end figures in the report;
	// effort prefixes the counting-backend figures.
	throughput, latency, effort string
	// notes adds workload figures from the untraced replay; may be nil.
	notes func(rep *report, sw *experiments.Sweep, rp replayer)
}

// measureRounds is the untraced measurement: one warm-up sweep, then
// rounds rounds, each running sweeps through runner.Run until its
// share of 90% of the run has passed (at least one) and then one chunk
// of the direct replay, which takes about a second in all. The warm-up
// sweep is returned first, and with the units each chunk's replay
// latencies.
func measureRounds(e *env, mk func() *experiments.Sweep, rp replayer) ([]*sweepUnit, [][]time.Duration, error) {
	warm, err := runSweepUnit(e, mk(), "warmup", nil)
	if err != nil {
		return nil, nil, err
	}
	var segs [][]time.Duration
	units := []*sweepUnit{warm}
	slice := time.Duration(0.9 * e.seconds / rounds * float64(time.Second))
	for r := 0; r < rounds; r++ {
		end := time.Now().Add(slice)
		for first := true; first || time.Now().Before(end); first = false {
			u, err := runSweepUnit(e, mk(), fmt.Sprintf("unit%d", len(units)), nil)
			if err != nil {
				return nil, nil, err
			}
			units = append(units, u)
		}
		done := len(rp.latencies())
		if err := rp.run(r, rounds); err != nil {
			return nil, nil, err
		}
		segs = append(segs, rp.latencies()[done:])
	}
	return units, segs, nil
}

// timedReplay replays every set once and returns the wall time.
func timedReplay(rp replayer) (time.Duration, error) {
	t0 := time.Now()
	err := rp.run(0, 1)
	return time.Since(t0), err
}

func runSweepWorkload(e *env, rep *report, w *sweepWorkload) error {
	sw := w.mk()
	variants := sw.ActiveVariants()
	check := func(what string, want, got map[string][][]int64) {
		for _, name := range sortedKeys(want) {
			sameCounts(rep, what+" ("+name+")", want[name], got[name], variants, sw)
		}
	}

	var setup float64
	if !e.traced() {
		var err error
		if setup, err = sweepSetup(e); err != nil {
			return err
		}
	}
	rp := w.replayer(sw, rep, -1, nil)
	var units []*sweepUnit
	var segs [][]time.Duration
	allocBytes, gcs, err := memDelta(func() error {
		var err error
		if !e.traced() {
			units, segs, err = measureRounds(e, w.mk, rp)
			return err
		}
		for i := 0; i < tracedUnits && err == nil; i++ {
			var u *sweepUnit
			if u, err = runSweepUnit(e, w.mk(), fmt.Sprintf("unit%d", i), nil); err == nil {
				units = append(units, u)
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	setsPerUnit := int64(len(sw.Values) * sw.Sets)
	want := w.counts(units[0].rep.Result)
	var rates []float64
	for i, u := range units {
		if i > 0 || e.traced() {
			// The untraced run's first sweep is its warm-up.
			rates = append(rates, float64(w.work(u.rep.Result))/u.wall.Seconds())
		}
		rep.attempted += setsPerUnit
		rep.failed += int64(len(u.rep.Quarantined))
		if i > 0 {
			check(fmt.Sprintf("sweep %d against sweep 0", i), want, w.counts(u.rep.Result))
		}
	}
	if e.traced() {
		if err := rp.run(0, 1); err != nil {
			return err
		}
	}
	check("direct replay", want, rp.counts())
	if w.notes != nil {
		w.notes(rep, sw, rp)
	}
	failFrac := ratio(float64(rep.failed), float64(rep.attempted))

	if !e.traced() {
		rep.note("fail_frac", failFrac, "ratio")
		rep.set("setup_s", setup, "s")
		rep.set("peak_rss_mb", rss, "MB")
		rep.set("throughput_per_s", median(rates), "1/s")
		rep.note(w.throughput, median(rates), "1/s")
		sorted := sortedCopy(rates)
		rep.note(w.throughput+".slowest_sweep", sorted[0], "1/s")
		rep.note(w.throughput+".fastest_sweep", sorted[len(sorted)-1], "1/s")
		rep.note(w.throughput+".sweeps", float64(len(rates)), "count")
		latencyMetrics(rep, w.latency, segs)
		return nil
	}

	rep.set("fail_frac", failFrac, "ratio")
	runnerShares(rep, units[0], e.nproc)
	rep.note("sweep.alloc_bytes_per_set", float64(allocBytes)/float64(setsPerUnit*int64(len(units))), "B")
	rep.note("sweep.gc_cycles", float64(gcs), "count")

	// Tracing overhead: the traced replay against the faster of two
	// untraced ones around it, all three without the correctness
	// checks (a nil report).
	plain, err := timedReplay(w.replayer(sw, nil, -1, nil))
	if err != nil {
		return err
	}
	root := e.tr.begin("replay", -1, 0)
	traced, err := timedReplay(w.replayer(sw, nil, root, nil))
	e.tr.end(root)
	if err != nil {
		return err
	}
	again, err := timedReplay(w.replayer(sw, nil, -1, nil))
	if err != nil {
		return err
	}
	tracedShares(e, rep, root, min(plain, again), traced)
	rep.set("taskgen.generate_us", e.tr.meanMicros(root, "taskgen.Generate"), "us")

	efforts := make(map[string]*effort)
	crp := w.replayer(sw, rep, -1, efforts)
	if err := crp.run(0, 1); err != nil {
		return err
	}
	check("counting-backend replay", want, crp.counts())
	for _, name := range sortedKeys(efforts) {
		efforts[name].report(rep, w.effort+"."+name, false)
	}
	_, _, p := pointConfig(sw, sw.Values[0])
	return ladder(e, rp.sample(), p.M, p.K, rep)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sweepParts keeps one Partitioner per backend name, re-dimensioned
// per point; with efforts non-nil each runs on a counting backend.
type sweepParts struct {
	parts   map[string]*partition.Partitioner
	efforts map[string]*effort
}

func (s *sweepParts) arm(variants []experiments.Variant, m, k int) error {
	if s.parts == nil {
		s.parts = make(map[string]*partition.Partitioner)
	}
	for _, v := range variants {
		name := backendName(v)
		if part, ok := s.parts[name]; ok {
			part.Reset(m, k)
			continue
		}
		if s.efforts != nil {
			part, cb, err := newCounted(name, m, k)
			if err != nil {
				return err
			}
			s.parts[name] = part
			s.efforts[name] = &effort{cb: cb}
			continue
		}
		be, err := partition.NewBackend(name)
		if err != nil {
			return err
		}
		s.parts[name] = partition.NewWithBackend(m, k, be)
	}
	return nil
}
