package edfvd

import (
	"math"
	"math/rand"
	"testing"
)

// The State-vs-State layer of the differential wall, which must be
// bitwise: a probed query (EvalWith, ProbeBoundedWith) must leave
// exactly the readings the committed query reports after the
// corresponding Add, and the specialized K = 4 paths must be
// indistinguishable from the generic scan. This is the Backend delta
// contract's bit-identity invariant at the State seam. The State-vs-
// Analyze layer, where readings agree only up to accumulation order,
// is in probed_test.go.

// TestStateProbeCommitBitIdentity pins the delta contract at the State
// seam: the probed readings of a candidate must be bitwise the
// committed readings after Add — even though for K = 4 the probe runs
// the unrolled evalWith4 while the committed query runs the generic
// scan. Any elided multiply or reordered operation in the specialized
// paths would surface here as a one-ulp mismatch.
func TestStateProbeCommitBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for k := 1; k <= 6; k++ {
		for trial := 0; trial < 250; trial++ {
			tasks := randResidents(rng, k, rng.Intn(6))
			s, _ := buildPair(k, tasks)
			probe := randTask(rng, 99, k)
			row := rowOf(&probe, k)

			var probed ProbeEval
			s.EvalWith(probe.Crit, row, &probed)
			feasible := s.FeasibleWith(probe.Crit, row)
			if feasible != (probed.FeasibleK > 0) {
				t.Fatalf("k=%d trial=%d: FeasibleWith %v, EvalWith FeasibleK %d",
					k, trial, feasible, probed.FeasibleK)
			}

			committed, _ := buildPair(k, append(tasks, probe))
			var ev ProbeEval
			committed.Eval(&ev)
			if ev != probed {
				t.Fatalf("k=%d trial=%d crit=%d: probed %+v, committed %+v",
					k, trial, probe.Crit, probed, ev)
			}

			// The committed Report's scalar readings come from the same
			// sums, bitwise.
			var rep Report
			committed.ReportInto(&rep)
			if rep.FeasibleK != ev.FeasibleK || rep.CoreUtil != ev.CoreUtil || rep.CoreUtilWorst != ev.CoreUtilWorst {
				t.Fatalf("k=%d trial=%d: ReportInto (%d,%v,%v), Eval (%d,%v,%v)",
					k, trial, rep.FeasibleK, rep.CoreUtil, rep.CoreUtilWorst,
					ev.FeasibleK, ev.CoreUtil, ev.CoreUtilWorst)
			}
		}
	}
}

// TestProbeBoundedMatchesFloorThenEval pins the fused probe against
// its unfused reference: ProbeBoundedWith(base, margin) must return
// false exactly when the UtilFloorWith prune would have fired, and on
// true must fill bitwise the readings EvalWith fills — for margins
// from +Inf (no winner yet) down to values straddling the floor.
func TestProbeBoundedMatchesFloorThenEval(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for k := 1; k <= 6; k++ {
		for trial := 0; trial < 200; trial++ {
			s, _ := buildPair(k, randResidents(rng, k, rng.Intn(6)))
			probe := randTask(rng, 99, k)
			row := rowOf(&probe, k)
			base := rng.Float64()

			floor := s.UtilFloorWith(probe.Crit, row)
			margins := []float64{math.Inf(1), floor - base + 1e-6, floor - base, floor - base - 1e-6, 0}
			for _, margin := range margins {
				var ev ProbeEval
				ok := s.ProbeBoundedWith(probe.Crit, row, base, margin, &ev)
				wantOk := !(k >= 2 && floor-base >= margin)
				if ok != wantOk {
					t.Fatalf("k=%d trial=%d margin=%v: ProbeBoundedWith %v, floor reference %v (floor=%v base=%v)",
						k, trial, margin, ok, wantOk, floor, base)
				}
				if !ok {
					continue
				}
				var ref ProbeEval
				s.EvalWith(probe.Crit, row, &ref)
				if ev != ref {
					t.Fatalf("k=%d trial=%d margin=%v: fused %+v, EvalWith %+v", k, trial, margin, ev, ref)
				}
			}
		}
	}
}
