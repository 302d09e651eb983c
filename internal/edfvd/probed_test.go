package edfvd

import (
	"math"
	"math/rand"
	"testing"

	"catpa/internal/mc"
)

// The State probe queries promise the answers a physical add of the
// candidate followed by the full matrix analysis would give. These
// tests pin that contract against Analyze as the reference:
//
//   - FeasibleWith and the EvalWith verdict (and its first holding
//     condition) must equal Analyze's exactly;
//   - the EvalWith readings must equal Analyze's up to accumulation
//     order (approxEq): the cached sums and the matrix add the same
//     utilizations along different association orders;
//   - a SimpleFeasibleWith accept implies Analyze feasible;
//   - UtilFloorWith is never above either Eq. 9 reading;
//   - the queries leave the committed sums bit-identical.

// approxEq is the cross-representation float comparison: equal up to
// accumulation-order rounding, with infinities matched exactly.
func approxEq(a, b float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// rowOf returns tk's full K-length utilization row, the form every
// State query takes.
func rowOf(tk *mc.Task, k int) []float64 {
	row := make([]float64, k)
	tk.UtilRow(k, row)
	return row
}

// addPair commits tk to both representations: the State by its delta
// Add, the matrix by its row add.
func addPair(s *State, m *mc.UtilMatrix, tk *mc.Task) {
	s.Add(tk.Crit, rowOf(tk, s.k))
	m.Add(tk)
}

// buildPair accumulates tasks, in order, into a fresh K-level State and
// UtilMatrix.
func buildPair(k int, tasks []mc.Task) (*State, *mc.UtilMatrix) {
	var s State
	s.Reset(k)
	m := mc.NewUtilMatrix(k)
	for i := range tasks {
		addPair(&s, m, &tasks[i])
	}
	return &s, m
}

// checkStateQueries runs every State probe query for the candidate
// against the ground truth of a physical add + Analyze on a clone of
// m, which must hold the same tasks as s.
func checkStateQueries(t *testing.T, s *State, m *mc.UtilMatrix, probe *mc.Task) {
	t.Helper()
	k, crit := s.k, probe.Crit
	row := rowOf(probe, k)

	sums := append([]float64(nil), s.buf...)
	ownSum, ukk1 := s.ownSum, s.ukk1
	feasible := s.FeasibleWith(crit, row)
	simple := s.SimpleFeasibleWith(crit, row)
	floor := s.UtilFloorWith(crit, row)
	var ev ProbeEval
	s.EvalWith(crit, row, &ev)
	for i, v := range s.buf {
		if math.Float64bits(v) != math.Float64bits(sums[i]) {
			t.Fatalf("probe queries mutated the committed sums at %d: %v -> %v", i, sums[i], v)
		}
	}
	if math.Float64bits(s.ownSum) != math.Float64bits(ownSum) || math.Float64bits(s.ukk1) != math.Float64bits(ukk1) {
		t.Fatalf("probe queries mutated (ownSum, ukk1): (%v, %v) -> (%v, %v)", ownSum, ukk1, s.ownSum, s.ukk1)
	}

	real := m.Clone()
	real.Add(probe)
	r := Analyze(real)

	if feasible != r.Feasible() {
		t.Fatalf("k=%d crit=%d: FeasibleWith = %v, post-add Analyze = %v\nmatrix:\n%s",
			k, crit, feasible, r.Feasible(), real)
	}
	if ev.FeasibleK != r.FeasibleK {
		t.Fatalf("k=%d crit=%d: EvalWith FeasibleK = %d, Analyze FeasibleK = %d\nmatrix:\n%s",
			k, crit, ev.FeasibleK, r.FeasibleK, real)
	}
	if !approxEq(ev.CoreUtil, r.CoreUtil) || !approxEq(ev.CoreUtilWorst, r.CoreUtilWorst) {
		t.Fatalf("k=%d crit=%d: EvalWith readings (%v, %v), Analyze (%v, %v)\nmatrix:\n%s",
			k, crit, ev.CoreUtil, ev.CoreUtilWorst, r.CoreUtil, r.CoreUtilWorst, real)
	}
	if simple && !r.Feasible() {
		t.Fatalf("k=%d crit=%d: SimpleFeasibleWith accepts an infeasible subset\nmatrix:\n%s", k, crit, real)
	}
	if r.Feasible() && (floor > r.CoreUtil || floor > r.CoreUtilWorst) {
		t.Fatalf("k=%d crit=%d: UtilFloorWith = %v exceeds CoreUtil %v / CoreUtilWorst %v\nmatrix:\n%s",
			k, crit, floor, r.CoreUtil, r.CoreUtilWorst, real)
	}
}

// randTask draws a valid task biased toward the interesting boundary
// region (subsets that are neither trivially light nor hopeless).
func randTask(rng *rand.Rand, id, maxK int) mc.Task {
	period := float64(1 + rng.Intn(2000))
	crit := 1 + rng.Intn(maxK)
	u1 := 0.02 + 0.6*rng.Float64()
	w := make([]float64, crit)
	w[0] = u1 * period
	growth := 1 + 2*rng.Float64()
	for j := 1; j < crit; j++ {
		w[j] = math.Min(w[j-1]*growth, period)
	}
	return mc.MustTask(id, "", period, w...)
}

// randResidents draws n random resident tasks for a K-level core.
func randResidents(rng *rand.Rand, k, n int) []mc.Task {
	tasks := make([]mc.Task, n)
	for i := range tasks {
		tasks[i] = randTask(rng, i+1, k)
	}
	return tasks
}

// TestProbedScreensMatchAnalysis sweeps K = 1..6 with random resident
// subsets and probe tasks, comparing every State query against the
// physical add-and-analyze ground truth.
func TestProbedScreensMatchAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(20160816))
	for k := 1; k <= 6; k++ {
		for trial := 0; trial < 300; trial++ {
			s, m := buildPair(k, randResidents(rng, k, rng.Intn(6)))
			probe := randTask(rng, 99, k)
			checkStateQueries(t, s, m, &probe)
		}
	}
}

// TestStateQueriesMatchProbedScreens drives one State per trial the way
// an admission loop does: every candidate is probed, and committed
// only when FeasibleWith (just pinned to Analyze) accepts it. The core
// therefore climbs to and then hugs the feasibility boundary, where a
// verdict drift would show, and each probe reads a min-term cache left
// by the earlier probes and commits.
func TestStateQueriesMatchProbedScreens(t *testing.T) {
	rng := rand.New(rand.NewSource(20260809))
	for k := 1; k <= 6; k++ {
		for trial := 0; trial < 40; trial++ {
			s, m := buildPair(k, nil)
			for i := 0; i < 16; i++ {
				tk := randTask(rng, i+1, k)
				checkStateQueries(t, s, m, &tk)
				if s.FeasibleWith(tk.Crit, rowOf(&tk, k)) {
					addPair(s, m, &tk)
				}
			}
		}
	}
}

// FuzzProbedScreens drives the same contract from fuzz-decoded task
// sets: each decoded task is probed against the State holding all the
// tasks before it, then committed.
func FuzzProbedScreens(f *testing.F) {
	f.Add(tableISeed())
	f.Add(encodeTask(1000, 999, 4, 128))
	f.Add(append(encodeTask(200, 600, 2, 32), encodeTask(200, 400, 1, 0)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 4
		ts := decodeTaskSet(t, data, k)
		if ts == nil {
			t.Skip("not enough bytes for one task")
		}
		s, m := buildPair(k, nil)
		for i := range ts.Tasks {
			checkStateQueries(t, s, m, &ts.Tasks[i])
			addPair(s, m, &ts.Tasks[i])
		}
	})
}
