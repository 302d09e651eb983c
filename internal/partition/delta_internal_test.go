package partition

import (
	"math"
	"testing"

	"catpa/internal/mc"
)

// deltaSet is the hand-sized multi-criticality set of the EDF-VD
// backend delta tests: exact binary utilizations (periods are powers
// of two, budgets small integers), so replayed sums are exactly
// reproducible by hand.
func deltaSet() *mc.TaskSet {
	return &mc.TaskSet{Tasks: []mc.Task{
		{ID: 1, Period: 8, Crit: 4, WCET: []float64{1, 2, 3, 4}},
		{ID: 2, Period: 16, Crit: 2, WCET: []float64{1, 2}},
		{ID: 3, Period: 4, Crit: 1, WCET: []float64{1}},
		{ID: 4, Period: 32, Crit: 3, WCET: []float64{1, 2, 4}},
	}}
}

// TestEdfvdRemoveReplayFallback pins the removal delta of the EDF-VD
// backend at the boundary where the O(1) arithmetic undo is
// unavailable: Remove must only excise the member and mark the core
// (no analysis work), the mark must defer the exact-recompute replay
// to the next read, and the replayed state must answer queries bitwise
// like a core that never held the removed task — placement order
// preserved for the survivors.
func TestEdfvdRemoveReplayFallback(t *testing.T) {
	ts := deltaSet()
	newBackend := func() *edfvdBackend {
		be, err := NewBackend(DefaultBackend)
		if err != nil {
			t.Fatal(err)
		}
		b := be.(*edfvdBackend)
		b.Reset(1, 4)
		b.Prepare(ts)
		b.Begin()
		return b
	}

	b := newBackend()
	for ti := 0; ti < 4; ti++ {
		b.Place(0, ti, false)
	}
	if b.ndirty != 0 || b.dirty[0] {
		t.Fatal("placements alone dirtied the core; Add is the O(1) delta, not a rebuild trigger")
	}

	// The fallback trigger: Remove excises and marks, nothing else.
	load := b.states[0].OwnLoad()
	b.Remove(0, 1)
	if !b.dirty[0] || b.ndirty != 1 {
		t.Fatalf("Remove left (dirty, ndirty) = (%v, %d), want (true, 1)", b.dirty[0], b.ndirty)
	}
	if got := b.states[0].OwnLoad(); got != load {
		t.Fatalf("Remove touched the analysis state eagerly (own load %v -> %v); the replay is deferred to the next read", load, got)
	}

	// A second removal on the already-dirty core must not double-count.
	b.Remove(0, 3)
	if b.ndirty != 1 {
		t.Fatalf("second Remove on a dirty core bumped ndirty to %d", b.ndirty)
	}

	// Reference: a core that only ever held the survivors, in the same
	// placement order.
	ref := newBackend()
	ref.Place(0, 0, false)
	ref.Place(0, 2, false)

	// The first read replays; every committed reading must match the
	// reference bitwise.
	if got, want := b.OwnLoad(0), ref.OwnLoad(0); got != want {
		t.Fatalf("replayed OwnLoad = %v, reference %v", got, want)
	}
	if b.dirty[0] || b.ndirty != 0 {
		t.Fatal("read did not clear the dirty mark")
	}
	if got, want := len(b.members[0]), len(ref.members[0]); got != want {
		t.Fatalf("replayed member count %d, reference %d", got, want)
	}
	for _, worst := range []bool{false, true} {
		if got, want := b.CoreUtil(0, worst), ref.CoreUtil(0, worst); got != want {
			t.Fatalf("replayed CoreUtil(worst=%v) = %v, reference %v", worst, got, want)
		}
	}
	for ti := 1; ti <= 3; ti += 2 { // the removed tasks, as fresh candidates
		if got, want := b.FeasibleWith(0, ti), ref.FeasibleWith(0, ti); got != want {
			t.Fatalf("replayed FeasibleWith(%d) = %v, reference %v", ti, got, want)
		}
		gp, wp := b.ProbeUtil(0, ti, false), ref.ProbeUtil(0, ti, false)
		if gp != wp && !(math.IsInf(gp, 1) && math.IsInf(wp, 1)) {
			t.Fatalf("replayed ProbeUtil(%d) = %v, reference %v", ti, gp, wp)
		}
	}
	var gi, wi CoreInfo
	b.ReportInto(0, &gi)
	ref.ReportInto(0, &wi)
	if gi.Util != wi.Util || gi.FeasibleK != wi.FeasibleK {
		t.Fatalf("replayed report (%v, %d), reference (%v, %d)", gi.Util, gi.FeasibleK, wi.Util, wi.FeasibleK)
	}
	for j := range gi.Lambda {
		lg, lw := gi.Lambda[j], wi.Lambda[j]
		if lg != lw && !(math.IsNaN(lg) && math.IsNaN(lw)) {
			t.Fatalf("replayed lambda_%d = %v, reference %v", j+1, lg, lw)
		}
	}

	// Reanalyze on a clean core forces the same replay unconditionally
	// and must be a bitwise no-op on the readings.
	before := b.CoreUtil(0, false)
	b.Reanalyze(0)
	if after := b.CoreUtil(0, false); after != before {
		t.Fatalf("Reanalyze changed a clean core's reading: %v -> %v", before, after)
	}
}

// TestEdfvdAddMatchesProbe pins the probe/commit bit-identity the
// delta contract promises on the backend seam: the committed Eq. 9
// readings after Place(ti) are bitwise the probed readings of ti
// against the pre-Place core, for every placement along a growing core.
func TestEdfvdAddMatchesProbe(t *testing.T) {
	ts := deltaSet()
	be, err := NewBackend(DefaultBackend)
	if err != nil {
		t.Fatal(err)
	}
	b := be.(*edfvdBackend)
	b.Reset(1, 4)
	b.Prepare(ts)
	b.Begin()
	for ti := 0; ti < 4; ti++ {
		probed := b.ProbeUtil(0, ti, false)
		probedW := b.ProbeUtil(0, ti, true)
		if math.IsInf(probed, 1) {
			t.Fatalf("task %d rejected on a hand-schedulable core", ti)
		}
		b.Place(0, ti, false)
		if got := b.CoreUtil(0, false); got != probed {
			t.Fatalf("task %d: committed CoreUtil %v, probed %v", ti, got, probed)
		}
		if got := b.CoreUtil(0, true); got != probedW {
			t.Fatalf("task %d: committed worst CoreUtil %v, probed %v", ti, got, probedW)
		}
	}
}
