package experiments

import (
	"context"
	"testing"

	"catpa/internal/obs"
	"catpa/internal/partition"
	"catpa/internal/taskgen"
)

// TestSweepMetricsAgreeWithCells proves the metrics layer's counting
// invariant against the sweep's own aggregates: for every scheme, the
// accepted counter equals the summed Sched hits across points, the
// rejected counter the summed misses, and accepted + rejected equals
// sweep.sets.total. The cells are what the CSV output renders, so this
// is the metrics/CSV agreement proof at the worker-pool level.
func TestSweepMetricsAgreeWithCells(t *testing.T) {
	s := smallSweep(90, 3)
	base := s.Apply
	s.Apply = func(p *Params, x float64) { shrink(p); base(p, x) }

	m := NewSweepMetrics(obs.NewRegistry())
	res, err := s.RunContext(context.Background(), &RunConfig{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}

	wantTotal := int64(s.Sets * len(s.Values))
	if got := m.SetsTotal(); got != wantTotal {
		t.Errorf("sweep.sets.total = %d, want %d", got, wantTotal)
	}
	if got := m.Quarantined(); got != 0 {
		t.Errorf("sweep.sets.quarantined = %d, want 0", got)
	}
	for si, sch := range partition.Schemes {
		v := Variant{Scheme: sch}
		var hits, n int64
		for _, p := range res.Points {
			hits += p.Cells[si].Sched.Hits()
			n += p.Cells[si].Sched.N()
		}
		if got := m.AcceptedVariant(v); got != hits {
			t.Errorf("%s: accepted = %d, want %d (summed cell hits)", sch, got, hits)
		}
		if got := m.RejectedVariant(v); got != n-hits {
			t.Errorf("%s: rejected = %d, want %d (summed cell misses)", sch, got, n-hits)
		}
		if m.AcceptedVariant(v)+m.RejectedVariant(v) != m.SetsTotal() {
			t.Errorf("%s: accepted + rejected = %d, want sets.total = %d",
				sch, m.AcceptedVariant(v)+m.RejectedVariant(v), m.SetsTotal())
		}
	}

	// Every set contributes exactly one observation per stage.
	for _, h := range []*obs.Histogram{m.genSeconds, m.partSeconds, m.anaSeconds} {
		if got := h.Count(); got != wantTotal {
			t.Errorf("%s: count = %d, want %d", h.Name(), got, wantTotal)
		}
	}
}

// TestInstrumentedResultsMatchUninstrumented: attaching metrics must
// not change a single verdict or mean — the instrumented path is the
// same Prepare/Place/Summarize sequence with clock reads around it.
func TestInstrumentedResultsMatchUninstrumented(t *testing.T) {
	mk := func() *Sweep {
		s := smallSweep(60, 2)
		base := s.Apply
		s.Apply = func(p *Params, x float64) { shrink(p); base(p, x) }
		return s
	}
	plain := mk().Run()
	inst, err := mk().RunContext(context.Background(),
		&RunConfig{Metrics: NewSweepMetrics(obs.NewRegistry())})
	if err != nil {
		t.Fatal(err)
	}
	for pi := range plain.Points {
		for si := range plain.Points[pi].Cells {
			a, b := plain.Points[pi].Cells[si], inst.Points[pi].Cells[si]
			if a != b {
				t.Errorf("point %d scheme %d: instrumented cell %+v != plain %+v", pi, si, b, a)
			}
		}
	}
}

// TestQuarantineCountsAsRejectedEverywhere: a quarantined set bumps
// sets.total, sets.quarantined and every scheme's rejected counter —
// exactly mirroring the Sched.Add(false) markers in the cells.
func TestQuarantineCountsAsRejectedEverywhere(t *testing.T) {
	s := smallSweep(30, 2)
	base := s.Apply
	s.Apply = func(p *Params, x float64) { shrink(p); base(p, x) }

	m := NewSweepMetrics(obs.NewRegistry())
	res, err := s.RunContext(context.Background(), &RunConfig{
		Metrics: m,
		Hook:    panicOnSet{point: 1, set: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantined = %v, want exactly one", res.Quarantined)
	}
	if got := m.Quarantined(); got != 1 {
		t.Errorf("sweep.sets.quarantined = %d, want 1", got)
	}
	wantTotal := int64(s.Sets * len(s.Values))
	if got := m.SetsTotal(); got != wantTotal {
		t.Errorf("sweep.sets.total = %d, want %d (quarantined sets still count)", got, wantTotal)
	}
	for si, sch := range partition.Schemes {
		v := Variant{Scheme: sch}
		var hits int64
		for _, p := range res.Points {
			hits += p.Cells[si].Sched.Hits()
		}
		if got := m.AcceptedVariant(v); got != hits {
			t.Errorf("%s: accepted = %d, want %d", sch, got, hits)
		}
		if m.AcceptedVariant(v)+m.RejectedVariant(v) != wantTotal {
			t.Errorf("%s: accepted + rejected = %d, want %d", sch, m.AcceptedVariant(v)+m.RejectedVariant(v), wantTotal)
		}
	}
}

// panicOnSet is a minimal fault hook (the full-featured one lives in
// internal/runner/faultinject, which this package cannot import).
type panicOnSet struct{ point, set int }

func (h panicOnSet) BeforeSet(point, set int) {
	if point == h.point && set == h.set {
		panic("metrics test: injected")
	}
}

// TestInstrumentedSetEvaluationZeroAllocs proves the tentpole's hot
// path guarantee: runSet with metrics attached performs zero heap
// allocations in the steady state, preserving the worker pool's
// allocation-free contract from the persistent-pipeline work.
func TestInstrumentedSetEvaluationZeroAllocs(t *testing.T) {
	params := DefaultParams()
	shrink(&params)
	cfg := params.genConfig()
	opts := partition.Options{Alpha: params.Alpha}
	m := NewSweepMetrics(obs.NewRegistry())
	variants := DefaultVariants()
	jb := job{
		cfg:      &cfg,
		seed:     7,
		m:        params.M,
		k:        params.K,
		opts:     &opts,
		variants: variants,
		groups:   buildGroups(variants),
		sets:     1 << 20,
		metrics:  m,
		row:      make([]Cell, len(variants)),
	}
	gen := taskgen.NewGenerator()
	parts := make(map[string]*partition.Partitioner)
	armWorker(parts, &jb)
	var evals []partition.Eval
	// Warm up across the N range so every amortized buffer reaches its
	// steady-state size, then revisit an already-seen set index (the
	// same discipline as the taskgen steady-state test).
	for set := 0; set < 64; set++ {
		if q := runSet(gen, parts, &evals, &jb, set); q != nil {
			t.Fatalf("unexpected quarantine: %v", q)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if q := runSet(gen, parts, &evals, &jb, 3); q != nil {
			t.Fatalf("unexpected quarantine: %v", q)
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented runSet allocates %v times per set, want 0", allocs)
	}
}

// TestVariantAccessorsAndResume exercises the variant-addressed
// counter accessors and the checkpoint fallback path directly: resumed
// cells restore exact per-variant totals, unknown variants read zero.
func TestVariantAccessorsAndResume(t *testing.T) {
	variants := []Variant{
		{Scheme: partition.CATPA},
		{Scheme: partition.CATPA, Backend: "amcrtb"},
	}
	m := NewSweepMetrics(obs.NewRegistry(), variants...)

	cells := make([]Cell, len(variants))
	for i := 0; i < 10; i++ {
		cells[0].Sched.Add(i < 7)
		cells[1].Sched.Add(i < 4)
	}
	m.AddResumedPoint(cells, 2)

	if got := m.SetsTotal(); got != 10 {
		t.Errorf("SetsTotal = %d, want 10", got)
	}
	if got := m.Quarantined(); got != 2 {
		t.Errorf("Quarantined = %d, want 2", got)
	}
	if a, r := m.AcceptedVariant(variants[0]), m.RejectedVariant(variants[0]); a != 7 || r != 3 {
		t.Errorf("default variant: accepted %d rejected %d, want 7/3", a, r)
	}
	if a, r := m.AcceptedVariant(variants[1]), m.RejectedVariant(variants[1]); a != 4 || r != 6 {
		t.Errorf("amcrtb variant: accepted %d rejected %d, want 4/6", a, r)
	}
	// The scheme-addressed accessors resolve to the default variant.
	if got := m.AcceptedVariant(Variant{Scheme: partition.CATPA}); got != 7 {
		t.Errorf("Accepted(CATPA) = %d, want 7", got)
	}
	// A variant outside the sweep reads zero, not a panic or mix-up.
	other := Variant{Scheme: partition.WFD}
	if m.AcceptedVariant(other) != 0 || m.RejectedVariant(other) != 0 {
		t.Error("unknown variant should read 0")
	}

	// An empty resumed record (no cells) only counts quarantines.
	m.AddResumedPoint(nil, 1)
	if got := m.Quarantined(); got != 3 {
		t.Errorf("Quarantined after empty record = %d, want 3", got)
	}
	if got := m.SetsTotal(); got != 10 {
		t.Errorf("SetsTotal after empty record = %d, want 10", got)
	}
}

// TestQuarantineString pins the reproduction-triple rendering the CLI
// prints for quarantined sets.
func TestQuarantineString(t *testing.T) {
	q := Quarantine{Point: 1, Set: 7, Seed: 9, Err: "boom"}
	if got, want := q.String(), "seed=9 point=1 set=7: boom"; got != want {
		t.Errorf("Quarantine.String() = %q, want %q", got, want)
	}
}
