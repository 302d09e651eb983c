package edfvd

import "testing"

// TestAddDeltaHandComputed pins the O(1)-per-level Add delta against
// hand-computed Theorem-1 terms. All inputs are exact binary fractions,
// so every cached sum must match the hand values bit for bit — no
// tolerance. The sequence covers one task per criticality level on a
// K = 4 core, checking after each Add exactly which sums move and by
// how much:
//
//	own[j-1]     = U_j(j)                  (diagonal)
//	ownSum       = sum_j U_j(j)            (Eq. 4 load)
//	ownTail[i-1] = sum_{x=i}^{K-1} U_x(x)  (mu prefix)
//	colTail[c-1] = sum_{x=c+1}^{K} U_x(c)  (lambda numerators)
//	ukk1         = U_K(K-1)                (second min-term input)
func TestAddDeltaHandComputed(t *testing.T) {
	var s State
	s.Reset(4)

	check := func(step string, own, ownTail, colTail []float64, ownSum, ukk1 float64) {
		t.Helper()
		for j, want := range own {
			if s.own[j] != want {
				t.Errorf("%s: own[%d] = %v, want %v", step, j, s.own[j], want)
			}
		}
		for i, want := range ownTail {
			if s.ownTail[i] != want {
				t.Errorf("%s: ownTail[%d] = %v, want %v", step, i, s.ownTail[i], want)
			}
		}
		for c, want := range colTail {
			if s.colTail[c] != want {
				t.Errorf("%s: colTail[%d] = %v, want %v", step, c, s.colTail[c], want)
			}
		}
		if s.ownSum != ownSum {
			t.Errorf("%s: ownSum = %v, want %v", step, s.ownSum, ownSum)
		}
		if s.OwnLoad() != ownSum {
			t.Errorf("%s: OwnLoad() = %v, want %v", step, s.OwnLoad(), ownSum)
		}
		if s.ukk1 != ukk1 {
			t.Errorf("%s: ukk1 = %v, want %v", step, s.ukk1, ukk1)
		}
	}

	// Task A, crit 4, urow = (1/8, 1/4, 3/8, 1/2): only the diagonal
	// entry U_4(4), the three lambda columns and U_4(3) move; the mu
	// prefix (levels 1..3) is untouched by a level-4 task.
	s.Add(4, []float64{0.125, 0.25, 0.375, 0.5})
	check("A(crit4)",
		[]float64{0, 0, 0, 0.5},
		[]float64{0, 0, 0},
		[]float64{0.125, 0.25, 0.375},
		0.5, 0.375)

	// Task B, crit 2, urow = (1/16, 1/8): U_2(2) and the tails i <= 2
	// gain 1/8, column 1 gains the level-1 entry 1/16; the min-term
	// inputs stay put.
	s.Add(2, []float64{0.0625, 0.125})
	check("B(crit2)",
		[]float64{0, 0.125, 0, 0.5},
		[]float64{0.125, 0.125, 0},
		[]float64{0.1875, 0.25, 0.375},
		0.625, 0.375)

	// Task C, crit 1, urow = (1/4): only U_1(1) and the first tail.
	s.Add(1, []float64{0.25})
	check("C(crit1)",
		[]float64{0.25, 0.125, 0, 0.5},
		[]float64{0.375, 0.125, 0},
		[]float64{0.1875, 0.25, 0.375},
		0.875, 0.375)

	// Task D, crit 3, urow = (1/32, 1/16, 1/8): U_3(3), all three
	// tails, columns 1 and 2.
	s.Add(3, []float64{0.03125, 0.0625, 0.125})
	check("D(crit3)",
		[]float64{0.25, 0.125, 0.125, 0.5},
		[]float64{0.5, 0.25, 0.125},
		[]float64{0.21875, 0.3125, 0.375},
		1.0, 0.375)

	// Committed min term (Eq. 5): min{U_4(4), U_4(3)/(1 - U_4(4))} =
	// min{1/2, 3/8 / 1/2} = 1/2, computed through the scalar cache.
	if s.mtOK {
		t.Error("min-term cache valid before any committed query")
	}
	if mt := s.minTermWith(1, []float64{0.25}); mt != 0.5 {
		t.Errorf("committed min term = %v, want 0.5", mt)
	}
	if !s.mtOK || s.mtVal != 0.5 {
		t.Errorf("min-term cache after query: (%v, %v), want (0.5, true)", s.mtVal, s.mtOK)
	}
	// A virtual level-K add bypasses the cache and folds the
	// candidate's row into both inputs: min{1/2 + 1/4, (3/8 + 1/8) /
	// (1 - 3/4)} = min{3/4, 2} = 3/4.
	if mt := s.minTermWith(4, []float64{0.0625, 0.125, 0.125, 0.25}); mt != 0.75 {
		t.Errorf("virtual level-K min term = %v, want 0.75", mt)
	}
	// A further level-K Add must invalidate the cache.
	s.Add(4, []float64{0, 0, 0, 0.0625})
	if s.mtOK {
		t.Error("min-term cache survived a level-K Add")
	}
}

// TestAdd4MatchesGenericLoops is the differential check behind the
// K = 4 unrolled Add: on exhaustive small rows, add4 (dispatched
// automatically for K = 4) must leave bitwise the state of the generic
// per-level loops, here replayed by hand on a K = 4 shadow whose
// dispatch is bypassed via direct field arithmetic.
func TestAdd4MatchesGenericLoops(t *testing.T) {
	rows := [][]float64{
		{0.11, 0.22, 0.33, 0.44},
		{0.07, 0.07, 0.5, 0.625},
		{0.3, 0.31, 0.32, 0.33},
	}
	for crit := 1; crit <= 4; crit++ {
		var got State
		got.Reset(4)
		// Shadow accumulators replicating Add's generic loops.
		own := make([]float64, 4)
		ownTail := make([]float64, 3)
		colTail := make([]float64, 3)
		ownSum, ukk1 := 0.0, 0.0
		for _, urow := range rows {
			got.Add(crit, urow)
			u := urow[crit-1]
			own[crit-1] += u
			ownSum += u
			if crit <= 3 {
				for i := 0; i < crit; i++ {
					ownTail[i] += u
				}
			}
			for c := 0; c < crit-1; c++ {
				colTail[c] += urow[c]
			}
			if crit == 4 {
				ukk1 += urow[2]
			}
		}
		for j := range own {
			if got.own[j] != own[j] {
				t.Errorf("crit %d: own[%d] = %v, generic %v", crit, j, got.own[j], own[j])
			}
		}
		for i := range ownTail {
			if got.ownTail[i] != ownTail[i] {
				t.Errorf("crit %d: ownTail[%d] = %v, generic %v", crit, i, got.ownTail[i], ownTail[i])
			}
		}
		for c := range colTail {
			if got.colTail[c] != colTail[c] {
				t.Errorf("crit %d: colTail[%d] = %v, generic %v", crit, c, got.colTail[c], colTail[c])
			}
		}
		if got.ownSum != ownSum || got.ukk1 != ukk1 {
			t.Errorf("crit %d: (ownSum, ukk1) = (%v, %v), generic (%v, %v)",
				crit, got.ownSum, got.ukk1, ownSum, ukk1)
		}
	}
}
