package runner

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"catpa/internal/experiments"
	"catpa/internal/obs"
	"catpa/internal/partition"
	"catpa/internal/runner/faultinject"
)

// counterTotals extracts the countable (non-timing) counters from a
// snapshot, the comparable core of the metrics/CSV agreement proofs.
func counterTotals(s *obs.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "sweep.sets.") {
			out[name] = v
		}
	}
	return out
}

// parseSchedCSV recovers the exact per-scheme accept counts from the
// rendered schedulability-ratio CSV: each cell is hits/sets printed
// with full float precision, so round(ratio*sets) is exact (the
// rounding error is below 1e-9*sets, far under one half).
func parseSchedCSV(t *testing.T, csv string, sets int) map[string]int64 {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	header := strings.Split(lines[0], ",")
	accepted := make(map[string]int64)
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		for ci := 1; ci < len(fields); ci++ {
			ratio, err := strconv.ParseFloat(fields[ci], 64)
			if err != nil {
				t.Fatalf("bad CSV cell %q: %v", fields[ci], err)
			}
			accepted[strings.ToLower(header[ci])] += int64(math.Round(ratio * float64(sets)))
		}
	}
	return accepted
}

// TestMetricsAgreeWithCSV proves, for an uninterrupted run, that the
// metrics counters and the CSV output describe the same experiment:
// per scheme, sweep.sets.accepted.<scheme> equals the accept count
// recovered from the rendered schedulability-ratio CSV, and
// accepted + rejected == sweep.sets.total.
func TestMetricsAgreeWithCSV(t *testing.T) {
	sw := testSweep()
	met := NewMetrics(obs.NewRegistry())
	rep, err := Run(context.Background(), sw, &Options{Metrics: met})
	if err != nil {
		t.Fatal(err)
	}

	wantTotal := int64(sw.Sets * len(sw.Values))
	if got := met.Exp.SetsTotal(); got != wantTotal {
		t.Fatalf("sweep.sets.total = %d, want %d", got, wantTotal)
	}
	fromCSV := parseSchedCSV(t, rep.Result.Chart(experiments.SchedRatio).CSV(), sw.Sets)
	for _, s := range partition.Schemes {
		v := experiments.Variant{Scheme: s}
		label := experiments.SchemeLabel(s)
		if got, want := met.Exp.AcceptedVariant(v), fromCSV[label]; got != want {
			t.Errorf("%s: accepted counter = %d, CSV says %d", label, got, want)
		}
		if met.Exp.AcceptedVariant(v)+met.Exp.RejectedVariant(v) != wantTotal {
			t.Errorf("%s: accepted + rejected = %d, want %d",
				label, met.Exp.AcceptedVariant(v)+met.Exp.RejectedVariant(v), wantTotal)
		}
	}
	if got := met.Snapshot().Gauges["sweep.workers"]; got != float64(sw.Workers) {
		t.Errorf("sweep.workers gauge = %v, want %d", got, sw.Workers)
	}
}

// TestMetricsCumulativeAcrossKillResume is the tentpole's cross-run
// agreement proof: a run killed at a point boundary and resumed with a
// fresh registry must end with exactly the counters of an
// uninterrupted run — restored from the snapshot embedded in the
// checkpoint journal — and the CSV recovered counts must agree.
func TestMetricsCumulativeAcrossKillResume(t *testing.T) {
	sw := testSweep()
	goldenMet := NewMetrics(obs.NewRegistry())
	if _, err := Run(context.Background(), testSweep(), &Options{Metrics: goldenMet}); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "testsweep.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	met1 := NewMetrics(obs.NewRegistry())
	_, err := Run(ctx, testSweep(), &Options{
		CheckpointPath: ckpt,
		Metrics:        met1,
		OnPoint: func(pi int, _ *experiments.Point) {
			if pi == 0 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if got, want := met1.Exp.SetsTotal(), int64(sw.Sets); got != want {
		t.Fatalf("interrupted run counted %d sets, want %d (one point)", got, want)
	}

	// Resume with a FRESH registry: cumulative totals must come back
	// from the journaled snapshot.
	met2 := NewMetrics(obs.NewRegistry())
	rep2, err := Run(context.Background(), testSweep(), &Options{CheckpointPath: ckpt, Metrics: met2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Complete() {
		t.Fatal("resumed run incomplete")
	}

	snapGolden, snapResumed := goldenMet.Snapshot(), met2.Snapshot()
	if gotC := counterTotals(snapResumed); !mapsEqual(gotC, counterTotals(snapGolden)) {
		t.Errorf("resumed counters %v differ from uninterrupted %v", gotC, counterTotals(snapGolden))
	}
	if got := met2.snapMerged.Value(); got != 1 {
		t.Errorf("checkpoint.snapshot.merged = %d, want 1", got)
	}
	if got := met2.pointsResumed.Value(); got != 1 {
		t.Errorf("sweep.points.resumed = %d, want 1", got)
	}
	// Progress counters are cumulative over the run's whole lifetime:
	// the merged snapshot carries the interrupted run's one computed
	// point alongside the two computed after the resume.
	if got := met2.pointsComputed.Value(); got != 3 {
		t.Errorf("sweep.points.computed = %d, want 3 (1 before the kill + 2 after)", got)
	}
	// Timing history also survives: every set of the whole run has one
	// generate observation (the resumed point's came from the snapshot).
	wantTotal := int64(sw.Sets * len(sw.Values))
	if got := snapResumed.Histograms["sweep.stage.generate.seconds"].Count; got != wantTotal {
		t.Errorf("merged generate histogram count = %d, want %d", got, wantTotal)
	}
	fromCSV := parseSchedCSV(t, rep2.Result.Chart(experiments.SchedRatio).CSV(), sw.Sets)
	for _, s := range partition.Schemes {
		v := experiments.Variant{Scheme: s}
		if got, want := met2.Exp.AcceptedVariant(v), fromCSV[experiments.SchemeLabel(s)]; got != want {
			t.Errorf("%s: resumed accepted counter = %d, CSV says %d", s, got, want)
		}
	}
}

// TestMetricsRebuiltFromPointsWhenSnapshotTorn: tearing the journal's
// final line (always the metrics snapshot) must not cost counting
// accuracy — the countable totals are rebuilt exactly from the
// surviving point records; only the resumed points' timing history is
// lost.
func TestMetricsRebuiltFromPointsWhenSnapshotTorn(t *testing.T) {
	sw := testSweep()
	goldenMet := NewMetrics(obs.NewRegistry())
	if _, err := Run(context.Background(), testSweep(), &Options{Metrics: goldenMet}); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "testsweep.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Run(ctx, testSweep(), &Options{
		CheckpointPath: ckpt,
		Metrics:        NewMetrics(obs.NewRegistry()),
		OnPoint: func(pi int, _ *experiments.Point) {
			if pi == 0 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}

	// Tear the tail: chop the final line (the metrics snapshot) in half.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"metrics"`) {
		t.Fatalf("journal's final line is not the metrics snapshot: %q", last)
	}
	torn := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(ckpt, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	met := NewMetrics(obs.NewRegistry())
	rep, err := Run(context.Background(), testSweep(), &Options{CheckpointPath: ckpt, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatal("resumed run incomplete")
	}
	if got := met.snapRebuilt.Value(); got != 1 {
		t.Errorf("checkpoint.snapshot.rebuilt = %d, want 1", got)
	}
	if got := met.snapMerged.Value(); got != 0 {
		t.Errorf("checkpoint.snapshot.merged = %d, want 0", got)
	}
	if got := met.dropped.Value(); got != 1 {
		t.Errorf("checkpoint.lines.dropped = %d, want 1", got)
	}
	// Counting accuracy is fully recovered from the point records...
	if gotC := counterTotals(met.Snapshot()); !mapsEqual(gotC, counterTotals(goldenMet.Snapshot())) {
		t.Errorf("rebuilt counters %v differ from uninterrupted %v", gotC, counterTotals(goldenMet.Snapshot()))
	}
	// ...while the resumed point's timing observations are gone.
	wantFresh := int64(sw.Sets * 2)
	if got := met.Snapshot().Histograms["sweep.stage.generate.seconds"].Count; got != wantFresh {
		t.Errorf("rebuilt generate histogram count = %d, want %d (recomputed points only)", got, wantFresh)
	}
}

// TestMetricsQuarantineCounters wires the real fault injector through
// the runner and checks the quarantine surface of the metrics.
func TestMetricsQuarantineCounters(t *testing.T) {
	sw := testSweep()
	met := NewMetrics(obs.NewRegistry())
	hook := faultinject.New().PanicAt(1, 7, "boom on set 7")
	_, err := Run(context.Background(), sw, &Options{Metrics: met, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if got := met.Exp.Quarantined(); got != 1 {
		t.Errorf("sweep.sets.quarantined = %d, want 1", got)
	}
	wantTotal := int64(sw.Sets * len(sw.Values))
	for _, s := range partition.Schemes {
		v := experiments.Variant{Scheme: s}
		if met.Exp.AcceptedVariant(v)+met.Exp.RejectedVariant(v) != wantTotal {
			t.Errorf("%s: accepted + rejected = %d, want %d (quarantined set counted rejected)",
				s, met.Exp.AcceptedVariant(v)+met.Exp.RejectedVariant(v), wantTotal)
		}
	}
}

// mapsEqual compares two string->int64 maps.
func mapsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
