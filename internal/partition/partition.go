package partition

import (
	"fmt"
	"math"

	"catpa/internal/mc"
)

// Partition allocates the tasks of ts onto m homogeneous cores with
// the given scheme. k is the number of system criticality levels and
// must be at least ts.MaxCrit(); passing the system-wide K (rather
// than the set's own maximum) matters because the generator may
// produce sets that happen not to populate the top level.
//
// The returned result is self-contained; ts is not modified. Sweeps
// that partition many sets with the same dimensions should reuse a
// Partitioner instead, which amortizes all internal storage.
func Partition(ts *mc.TaskSet, m, k int, scheme Scheme, opts *Options) *Result {
	return New(m, k).Run(ts, scheme, opts)
}

// allocator is the one allocation shell shared by every heuristic and
// every analysis backend: it owns the heuristic state of a run —
// per-core task lists, the assignment, cached core utilizations,
// ordering scratch — and consults a Backend for every schedulability
// question (Algorithm 1's oracle seam). It is re-dimensioned by reset
// and cleared per run, so steady-state runs perform no allocations in
// the shell; whether the analysis itself allocates is the backend's
// contract (the EDF-VD backend does not).
type allocator struct {
	m, k int
	be   Backend

	// ebe is be when it is the default EDF-VD backend, else nil: the
	// concrete-type shortcut behind CA-TPA's devirtualized probe loop
	// (edfvdBackend.pickMinIncrement), which resolves the candidate's
	// row once per task and runs the fused floor-plus-probe per core
	// with direct calls. That loop performs exactly the interface-typed
	// loop's float comparisons, so the picks are identical. FFD, BFD,
	// WFD and Hybrid always run the interface-typed scans.
	ebe *edfvdBackend

	// Per-run inputs.
	ts     *mc.TaskSet
	scheme Scheme
	opts   *Options

	// Per-core state. utils is the per-core U^Psi in the configured
	// Eq. 9 reading (CA-TPA's decision metric), refreshed from the
	// backend on probed or traced placements; ownLoad the Eq. 4
	// own-level load the classical schemes compare cores by.
	utils   []float64
	ownLoad []float64
	tasks   [][]int // per-core task indices in allocation order

	// uMax/uMin cache max and min over utils, maintained by bumpUtil on
	// every refresh so the per-task Eq. 16 imbalance read is O(1)
	// instead of an O(m) rescan.
	uMax, uMin float64

	// Per-task state.
	assign []int // task -> core

	// Ordering cache: one slot per OrderPolicy, valid for the current
	// task set. Schemes sharing an effective ordering (all classical
	// heuristics default to MaxUtilOrder) then sort the set only once
	// per EvaluateAll batch.
	ordIdx [2][]int
	ordKey [2][]float64
	ordOK  [2]bool

	failed int // first unplaceable task, -1

	// probeOK records that the backend holds a kept probe analysis for
	// the next place.
	probeOK bool

	trace []Step
}

// reset re-dimensions the allocator for m cores and k levels, reusing
// storage where the dimensions allow.
func (a *allocator) reset(m, k int) {
	if m < 1 {
		panic(fmt.Sprintf("partition: invalid core count %d", m))
	}
	if k < 1 {
		k = 1
	}
	if maxK := a.be.MaxLevels(); maxK > 0 && k > maxK {
		panic(fmt.Sprintf("partition: backend %s supports at most K=%d levels, got %d", a.be.Name(), maxK, k))
	}
	a.be.Reset(m, k)
	if m == a.m && k == a.k && a.utils != nil {
		return
	}
	a.m, a.k = m, k
	a.utils = resizeFloats(a.utils, m)
	a.ownLoad = resizeFloats(a.ownLoad, m)
	if cap(a.tasks) < m {
		tasks := make([][]int, m)
		copy(tasks, a.tasks)
		a.tasks = tasks
	} else {
		a.tasks = a.tasks[:m]
	}
}

// prepSet installs a task set: it validates the dimensions and hands
// the set to the backend for per-set precomputation, invalidating the
// ordering cache. Once prepared, any number of runPrepared calls may
// share this work (the EvaluateAll batch path).
//
//mc:allocfree hands the set to the backend; panic path exempt
func (a *allocator) prepSet(ts *mc.TaskSet) {
	if maxCrit := ts.MaxCrit(); a.k < maxCrit {
		panic(fmt.Sprintf("partition: K=%d below task set criticality %d", a.k, maxCrit))
	}
	a.ts = ts
	a.ordOK[0], a.ordOK[1] = false, false
	a.be.Prepare(ts)
}

// clearRun resets the per-run state for the already-prepared task set.
//
//mc:allocfree truncates and refills amortized per-run state
func (a *allocator) clearRun(scheme Scheme, opts *Options) {
	a.scheme, a.opts = scheme, opts
	a.failed = -1
	a.probeOK = false
	a.trace = a.trace[:0]
	a.be.Begin()
	for c := 0; c < a.m; c++ {
		a.utils[c] = 0
		a.ownLoad[c] = a.be.OwnLoad(c)
		a.tasks[c] = a.tasks[c][:0]
	}
	a.assign = resizeInts(a.assign, a.ts.Len())
	for i := range a.assign {
		a.assign[i] = -1
	}
	a.uMax, a.uMin = 0, 0
}

// run executes one partitioning pass (allocation only; the caller
// assembles a Result or Eval afterwards).
//
//mc:allocfree one pass over amortized state
func (a *allocator) run(ts *mc.TaskSet, scheme Scheme, opts *Options) {
	a.prepSet(ts)
	a.runPrepared(scheme, opts)
}

// runPrepared executes one pass over the task set installed by the
// last prepSet.
//
//mc:allocfree dispatches to the per-scheme loops
func (a *allocator) runPrepared(scheme Scheme, opts *Options) {
	a.clearRun(scheme, opts)
	switch scheme {
	case WFD, FFD, BFD:
		a.runClassic()
	case Hybrid:
		a.runHybrid()
	case CATPA:
		a.runCATPA()
	default:
		panic(fmt.Sprintf("partition: unknown scheme %v", scheme))
	}
}

// place commits task ti to core c. When a CA-TPA probe cached the
// winning core's analysis (probeOK), the backend commits it directly;
// the classical schemes defer per-core analysis to the finishing pass
// entirely, since their placement decisions never read core
// utilizations (only own-level loads). Tracing forces the eager
// utilization read because Step.Util reports the post-placement value.
//
//mc:allocfree per-core slices grow amortized; Step is a value
func (a *allocator) place(ti, c int) {
	prev := a.utils[c]
	probed := a.probeOK
	a.probeOK = false
	a.be.Place(c, ti, probed)
	a.ownLoad[c] = a.be.OwnLoad(c)
	a.tasks[c] = append(a.tasks[c], ti)
	a.assign[ti] = c
	if probed || a.opts.trace() {
		a.utils[c] = a.be.CoreUtil(c, a.opts.eq9Literal())
		a.bumpUtil(prev, a.utils[c])
	}
	if a.opts.trace() {
		a.trace = append(a.trace, Step{Task: ti, Core: c, Util: a.utils[c], Increment: a.utils[c] - prev})
	}
}

//
//mc:allocfree records the failure index
func (a *allocator) fail(ti int) {
	a.failed = ti
	a.probeOK = false
	if a.opts.trace() {
		a.trace = append(a.trace, Step{Task: ti, Core: -1})
	}
}

// orderTasks resolves the ordering policy against the scheme's default
// and returns the sorted task order, computing it at most once per
// prepared task set and policy (the order is a pure function of both).
//
//mc:allocfree ordering scratch reused across runs
func (a *allocator) orderTasks(def OrderPolicy) []int {
	policy := a.opts.order(def)
	slot := 0
	if policy == MaxUtilOrder {
		slot = 1
	}
	if !a.ordOK[slot] {
		if policy == ContributionOrder {
			a.ordIdx[slot], a.ordKey[slot] = mc.SortByContributionInto(a.ts, a.ordIdx[slot], a.ordKey[slot])
		} else {
			a.ordIdx[slot], a.ordKey[slot] = mc.SortByMaxUtilInto(a.ts, a.ordIdx[slot], a.ordKey[slot])
		}
		a.ordOK[slot] = true
	}
	return a.ordIdx[slot]
}

// runClassic implements FFD, BFD and WFD: tasks in decreasing
// own-level utilization, cores compared by their Eq. 4 own-level load.
//
//mc:allocfree the FFD/BFD/WFD loop
func (a *allocator) runClassic() {
	order := a.orderTasks(MaxUtilOrder)
	for _, ti := range order {
		c := a.pick(ti)
		if c < 0 {
			a.fail(ti)
			return
		}
		a.place(ti, c)
	}
}

// pickClassic returns the target core for task ti under FFD/BFD/WFD,
// or -1 when no core can accommodate it. Each scheme gets its own
// scan loop so the per-core iteration carries no scheme dispatch.
//
// For BFD/WFD the load-hysteresis test runs before the schedulability
// probe: a core whose load would not displace the incumbent cannot
// change the pick whatever its verdict, so deferring the (much more
// expensive) feasibility call behind the load gate skips the analysis
// on most cores while selecting exactly the core the probe-first scan
// would.
//
//mc:allocfree scans cached loads
func (a *allocator) pickClassic(s Scheme, ti int) int {
	switch s {
	case BFD:
		return a.pickBFD(ti)
	case WFD:
		return a.pickWFD(ti)
	default:
		return a.pickFFD(ti)
	}
}

// pickFFD returns the first feasible core for ti, or -1.
//
//mc:allocfree the FFD scan
func (a *allocator) pickFFD(ti int) int {
	for c := 0; c < a.m; c++ {
		if a.be.FeasibleWith(c, ti) {
			return c
		}
	}
	return -1
}

// pickBFD returns the fullest feasible core for ti — maximum current
// own-level load (cached; refreshed by place via the same OwnLoad
// sum) under the Eps hysteresis — or -1.
//
//mc:allocfree the BFD scan
func (a *allocator) pickBFD(ti int) int {
	best := -1
	var bestLoad float64
	for c := 0; c < a.m; c++ {
		if load := a.ownLoad[c]; best < 0 || load > bestLoad+mc.Eps {
			if a.be.FeasibleWith(c, ti) {
				best, bestLoad = c, load
			}
		}
	}
	return best
}

// pickWFD returns the emptiest feasible core for ti — minimum current
// own-level load under the Eps hysteresis — or -1.
//
//mc:allocfree the WFD scan
func (a *allocator) pickWFD(ti int) int {
	best := -1
	var bestLoad float64
	for c := 0; c < a.m; c++ {
		if load := a.ownLoad[c]; best < 0 || load < bestLoad-mc.Eps {
			if a.be.FeasibleWith(c, ti) {
				best, bestLoad = c, load
			}
		}
	}
	return best
}

// runHybrid allocates high-criticality tasks (l_i >= 2) with WFD and
// then low-criticality tasks (l_i = 1) with FFD, both in decreasing
// own-level utilization, per Rodriguez et al.
//
//mc:allocfree two classic passes
func (a *allocator) runHybrid() {
	order := a.orderTasks(MaxUtilOrder)
	for _, ti := range order {
		if a.ts.Tasks[ti].Crit < 2 {
			continue
		}
		c := a.pick(ti)
		if c < 0 {
			a.fail(ti)
			return
		}
		a.place(ti, c)
	}
	for _, ti := range order {
		if a.ts.Tasks[ti].Crit >= 2 {
			continue
		}
		c := a.pick(ti)
		if c < 0 {
			a.fail(ti)
			return
		}
		a.place(ti, c)
	}
}

// runCATPA implements Algorithm 1 plus the workload-imbalance fallback
// of Section III-C.
//
//mc:allocfree Algorithm 1 inner loop
func (a *allocator) runCATPA() {
	order := a.orderTasks(ContributionOrder)
	for _, ti := range order {
		c := a.pick(ti)
		if c < 0 {
			a.fail(ti)
			return
		}
		a.place(ti, c)
	}
}

// imbalance computes the current workload imbalance factor Lambda
// (Eq. 16) from the cached utilization extrema — the same values a
// rescan of utils would produce, by the bumpUtil invariant.
//
//mc:allocfree reads two cached scalars
func (a *allocator) imbalance() float64 {
	if a.uMax <= mc.Eps {
		return 0
	}
	return (a.uMax - a.uMin) / a.uMax
}

// bumpUtil restores the uMax/uMin invariant after utils[c] changed
// from prev to cur: O(1) unless the update displaced the extremum it
// held, then one O(m) rescan.
//
//mc:allocfree scalar compares, rarely an O(m) rescan
func (a *allocator) bumpUtil(prev, cur float64) {
	//lint:ignore mclint/floateq deliberately exact: prev held the cached extremum iff it equals it bit for bit
	if (prev == a.uMax && cur < prev) || (prev == a.uMin && cur > prev) {
		a.rescanUtils()
		return
	}
	if cur > a.uMax {
		a.uMax = cur
	}
	if cur < a.uMin {
		a.uMin = cur
	}
}

// rescanUtils recomputes the cached utilization extrema from utils.
//
//mc:allocfree scans cached utilizations
func (a *allocator) rescanUtils() {
	maxU, minU := a.utils[0], a.utils[0]
	for _, u := range a.utils[1:] {
		if u > maxU {
			maxU = u
		}
		if u < minU {
			minU = u
		}
	}
	a.uMax, a.uMin = maxU, minU
}

// keepProbe marks the backend's most recent probe analysis as the
// winning candidate's, to be committed by place without re-analysis.
//
//mc:allocfree flags the backend swap
func (a *allocator) keepProbe() {
	a.be.KeepProbe()
	a.probeOK = true
}

// utilWith returns the backend's core utilization with task ti added
// (Eq. 15), +Inf when the extended subset is infeasible.
//
//mc:allocfree delegates to the backend probe
func (a *allocator) utilWith(c, ti int) float64 {
	return a.be.ProbeUtil(c, ti, a.opts.eq9Literal())
}

// pickMinIncrement probes every core (lines 5-11 of Algorithm 1) and
// returns the feasible core with the smallest core-utilization
// increment, ties broken by smaller index; -1 if none is feasible. The
// winning probe's analysis is retained for place.
//
//mc:allocfree the probe loop of Algorithm 1
func (a *allocator) pickMinIncrement(ti int) int {
	if eb := a.ebe; eb != nil {
		// The winning probe's analysis is already in keepEval; flag it
		// for place exactly as the per-improvement keepProbe would have.
		c := eb.pickMinIncrement(a.utils, ti, a.opts.eq9Literal())
		a.probeOK = c >= 0
		return c
	}
	best := -1
	bestInc := math.Inf(1)
	for c := 0; c < a.m; c++ {
		// Certified pruning: if even the utilization floor of the
		// probed core cannot beat the incumbent increment (under the
		// selection's Eps hysteresis), the full analysis is pointless.
		// The floor is conservative, so no potential winner is skipped.
		if floor := a.be.UtilFloor(c, ti); floor-a.utils[c] >= bestInc-mc.Eps {
			continue
		}
		u := a.utilWith(c, ti)
		if math.IsInf(u, 1) {
			continue // infeasible on this core
		}
		if inc := u - a.utils[c]; inc < bestInc-mc.Eps {
			best, bestInc = c, inc
			a.keepProbe()
		}
	}
	return best
}

// pickLeastLoaded returns the feasible core with minimum current core
// utilization (the imbalance fallback), ties broken by smaller index.
//
//mc:allocfree the imbalance fallback scan
func (a *allocator) pickLeastLoaded(ti int) int {
	best := -1
	bestU := math.Inf(1)
	for c := 0; c < a.m; c++ {
		if a.utils[c] >= bestU-mc.Eps {
			continue
		}
		if math.IsInf(a.utilWith(c, ti), 1) {
			continue
		}
		best, bestU = c, a.utils[c]
		a.keepProbe()
	}
	return best
}

// pickFirstFeasible places on the first core that passes the backend's
// schedulability test with the task added (the NoProbe ablation of
// Algorithm 1).
//
//mc:allocfree the NoProbe ablation scan
func (a *allocator) pickFirstFeasible(ti int) int {
	for c := 0; c < a.m; c++ {
		if !math.IsInf(a.utilWith(c, ti), 1) {
			a.keepProbe()
			return c
		}
	}
	return -1
}

// finishInto assembles the run's Result into r, reusing r's storage.
//
//mc:allocfree refills the Result's amortized slices
func (a *allocator) finishInto(r *Result) {
	r.Scheme = a.scheme
	r.M, r.K = a.m, a.k
	r.Feasible = a.failed < 0
	r.FailedTask = a.failed
	r.Assignment = append(r.Assignment[:0], a.assign...)
	if cap(r.Cores) < a.m {
		r.Cores = make([]CoreInfo, a.m)
	} else {
		r.Cores = r.Cores[:a.m]
	}
	for c := 0; c < a.m; c++ {
		ci := &r.Cores[c]
		ci.Tasks = append(ci.Tasks[:0], a.tasks[c]...)
		a.be.ReportInto(c, ci)
		ci.OwnLevelLoad = a.be.OwnLoad(c)
	}
	if len(a.trace) > 0 {
		r.Trace = append(r.Trace[:0], a.trace...)
	} else {
		r.Trace = nil
	}
	r.finishMetrics()
}

// evaluate computes the cheap Eval summary: the same per-core
// utilizations the full Result would report, folded with the exact
// arithmetic of Result.finishMetrics, but without materializing
// per-core task lists or lambda vectors.
//
//mc:allocfree folds backend utilizations into a value
func (a *allocator) evaluate() Eval {
	ev := Eval{Feasible: a.failed < 0, FailedTask: a.failed}
	maxU, minU, sum := math.Inf(-1), math.Inf(1), 0.0
	for c := 0; c < a.m; c++ {
		u := a.be.CoreUtil(c, false)
		sum += u
		if u > maxU {
			maxU = u
		}
		if u < minU {
			minU = u
		}
	}
	ev.Usys = maxU
	ev.Uavg = sum / float64(a.m)
	if maxU > mc.Eps {
		ev.Imbalance = (maxU - minU) / maxU
	}
	return ev
}

//
//mc:allocfree amortized: reallocates only on growth
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

//
//mc:allocfree amortized: reallocates only on growth
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

//
//mc:allocfree amortized: reallocates only on growth
func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
