package experiments

import (
	"strings"
	"time"

	"catpa/internal/obs"
	"catpa/internal/partition"
)

// Metrics is the observability surface of the sweep worker pool: set
// and per-variant accept/reject counters plus per-stage duration
// histograms, all registered in one obs.Registry. Every update on the
// hot path is an atomic on preallocated storage, so instrumentation
// preserves the pool's steady-state 0 allocs/op guarantee (proven by
// TestInstrumentedSetEvaluationZeroAllocs).
//
// The counting invariant, cross-checked against the CSV output in
// tests: for every variant v of a sweep,
//
//	accepted(v) + rejected(v) == sweep.sets.total
//
// with quarantined sets counted as rejected for every variant, exactly
// mirroring how Cell.Sched counts them.
type SweepMetrics struct {
	variants        []Variant
	setsTotal       *obs.Counter
	setsQuarantined *obs.Counter
	accepted        []*obs.Counter // indexed like variants
	rejected        []*obs.Counter // indexed like variants
	genSeconds      *obs.Histogram
	partSeconds     *obs.Histogram
	anaSeconds      *obs.Histogram
	online          *onlineMetrics // nil for static sweeps
}

// onlineMetrics is the observability surface of the online scenario:
// event and per-variant admit/shed counters, plus two histograms
// bucketed over scenario time (one bound per horizon bucket), so the
// admission and shed timelines are readable from a metrics snapshot
// without the cells. Registered only for online sweeps — a static
// sweep's snapshot is byte-identical to the pre-scenario harness.
type onlineMetrics struct {
	events    *obs.Counter
	admitted  []*obs.Counter // indexed like variants
	shed      []*obs.Counter // indexed like variants
	admitTime *obs.Histogram
	shedTime  *obs.Histogram
}

// scenarioDuration renders scenario time (task-period units) on the
// histogram's duration axis at one millisecond per unit, matching the
// bounds laid by scenarioTimeBounds.
//
//mc:allocfree
func scenarioDuration(t float64) time.Duration {
	return time.Duration(t * float64(time.Millisecond))
}

// scenarioTimeBounds lays one histogram bound per horizon bucket, so
// the obs histograms of the online family are time-bucketed exactly
// like the cells' over-time curves.
func scenarioTimeBounds(o *OnlineScenario) []time.Duration {
	buckets := o.buckets()
	bounds := make([]time.Duration, buckets)
	for b := 0; b < buckets; b++ {
		bounds[b] = scenarioDuration(float64(b+1) * o.Horizon / float64(buckets))
	}
	return bounds
}

// NewSweepMetricsFor registers the metrics surface matching the
// sweep's scenario: the static family always, plus the online family
// for online sweeps. Like NewSweepMetrics, each registry supports one
// call.
func NewSweepMetricsFor(reg *obs.Registry, sw *Sweep) *SweepMetrics {
	m := NewSweepMetrics(reg, sw.ActiveVariants()...)
	o, ok := sw.scenario().(*OnlineScenario)
	if !ok {
		return m
	}
	bounds := scenarioTimeBounds(o)
	om := &onlineMetrics{
		events:    reg.Counter("online.events.total"),
		admitTime: reg.Histogram("online.admit.scenario.time", bounds),
		shedTime:  reg.Histogram("online.shed.scenario.time", bounds),
		admitted:  make([]*obs.Counter, len(m.variants)),
		shed:      make([]*obs.Counter, len(m.variants)),
	}
	for vi, v := range m.variants {
		om.admitted[vi] = reg.LabeledCounter("online.arrivals.admitted", v.Label())
		om.shed[vi] = reg.LabeledCounter("online.arrivals.shed", v.Label())
	}
	m.online = om
	return m
}

// observeEvents counts one replication's replayed events; no-op on a
// nil receiver or a static sweep's surface.
func (m *SweepMetrics) observeEvents(n int) {
	if m == nil || m.online == nil {
		return
	}
	m.online.events.Add(int64(n))
}

// observeAdmit records one admitted arrival at scenario time t.
//
//mc:allocfree atomics on preallocated storage
func (m *SweepMetrics) observeAdmit(vi int, t float64) {
	if m == nil || m.online == nil {
		return
	}
	m.online.admitted[vi].Inc()
	m.online.admitTime.Observe(scenarioDuration(t))
}

// observeShed records one shed arrival at scenario time t.
//
//mc:allocfree atomics on preallocated storage
func (m *SweepMetrics) observeShed(vi int, t float64) {
	if m == nil || m.online == nil {
		return
	}
	m.online.shed[vi].Inc()
	m.online.shedTime.Observe(scenarioDuration(t))
}

// EventsTotal returns the number of replayed online events counted, 0
// for a static sweep's surface.
func (m *SweepMetrics) EventsTotal() int64 {
	if m.online == nil {
		return 0
	}
	return m.online.events.Value()
}

// AdmittedArrivals returns the number of admitted arrivals counted for
// variant index vi, 0 for a static sweep's surface.
func (m *SweepMetrics) AdmittedArrivals(vi int) int64 {
	if m.online == nil {
		return 0
	}
	return m.online.admitted[vi].Value()
}

// ShedArrivals returns the number of shed arrivals counted for variant
// index vi, 0 for a static sweep's surface.
func (m *SweepMetrics) ShedArrivals(vi int) int64 {
	if m.online == nil {
		return 0
	}
	return m.online.shed[vi].Value()
}

// NewSweepMetrics registers the sweep metrics in reg and returns the
// surface. The variant list must match the sweep's (ActiveVariants);
// an empty list selects the defaults, whose metric labels are the
// plain scheme labels ("wfd".."ca-tpa"), unchanged from when sweeps
// had no backend axis. Each registry supports exactly one
// NewSweepMetrics call (names register exactly once); use a fresh
// registry per run.
func NewSweepMetrics(reg *obs.Registry, variants ...Variant) *SweepMetrics {
	if len(variants) == 0 {
		variants = DefaultVariants()
	}
	m := &SweepMetrics{
		variants:        variants,
		setsTotal:       reg.Counter("sweep.sets.total"),
		setsQuarantined: reg.Counter("sweep.sets.quarantined"),
		genSeconds:      reg.Histogram("sweep.stage.generate.seconds", nil),
		partSeconds:     reg.Histogram("sweep.stage.partition.seconds", nil),
		anaSeconds:      reg.Histogram("sweep.stage.analyze.seconds", nil),
		accepted:        make([]*obs.Counter, len(variants)),
		rejected:        make([]*obs.Counter, len(variants)),
	}
	for vi, v := range variants {
		m.accepted[vi] = reg.LabeledCounter("sweep.sets.accepted", v.Label())
		m.rejected[vi] = reg.LabeledCounter("sweep.sets.rejected", v.Label())
	}
	return m
}

// SchemeLabel renders a scheme as a metric-name label ("ca-tpa").
func SchemeLabel(s partition.Scheme) string {
	return strings.ToLower(s.String())
}

// SetsTotal returns the number of task-set evaluations counted so far
// (including quarantined sets and totals merged from a resumed run).
func (m *SweepMetrics) SetsTotal() int64 { return m.setsTotal.Value() }

// Quarantined returns the number of quarantined task sets counted.
func (m *SweepMetrics) Quarantined() int64 { return m.setsQuarantined.Value() }

// variantIndex locates v in the metric's variant list, -1 when absent.
func (m *SweepMetrics) variantIndex(v Variant) int {
	for vi := range m.variants {
		if m.variants[vi].Scheme == v.Scheme && m.variants[vi].backendName() == v.backendName() {
			return vi
		}
	}
	return -1
}

// AcceptedVariant returns the number of sets variant v accepted, or 0
// when v is not part of the sweep.
func (m *SweepMetrics) AcceptedVariant(v Variant) int64 {
	if vi := m.variantIndex(v); vi >= 0 {
		return m.accepted[vi].Value()
	}
	return 0
}

// RejectedVariant returns the number of sets variant v rejected
// (including quarantined sets), or 0 when v is not part of the sweep.
func (m *SweepMetrics) RejectedVariant(v Variant) int64 {
	if vi := m.variantIndex(v); vi >= 0 {
		return m.rejected[vi].Value()
	}
	return 0
}

// AddResumedPoint folds a checkpointed point's exact counts into the
// counters: the fallback restoration path for journals whose embedded
// metrics snapshot is missing or was dropped as torn. cells must be
// indexed like the metric's variant list (the sweep's ActiveVariants).
func (m *SweepMetrics) AddResumedPoint(cells []Cell, quarantined int) {
	if len(cells) > 0 {
		m.setsTotal.Add(cells[0].Sched.N())
	}
	for vi := range m.variants {
		if vi >= len(cells) {
			break
		}
		hits := cells[vi].Sched.Hits()
		m.accepted[vi].Add(hits)
		m.rejected[vi].Add(cells[vi].Sched.N() - hits)
	}
	m.setsQuarantined.Add(int64(quarantined))
}
