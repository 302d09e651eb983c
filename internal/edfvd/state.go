package edfvd

import "math"

// State is the incremental scalar form of one core's Theorem-1
// analysis inputs: instead of re-reading a K x K utilization matrix on
// every query, it maintains exactly the aggregate sums the analysis
// consumes — each a single float updated in O(1) per criticality level
// when a task is added. The whole Theorem-1 ladder (the Eq. 4 accept,
// the O(1) overload reject, the Eq. 6 lambda recursion and the Eq. 5/8
// condition scan) then runs in O(K) per query instead of O(K^2), and
// probe queries touch no per-task storage at all.
//
// Delta discipline (the bit-identity contract the differential fuzz
// gates prove): every probed query evaluates `cached + urow[...]` with
// exactly the float operations Add performs on commit, so the value a
// probe reports for "subset plus this task" is bitwise the value the
// committed state reports after Add of the same task. A full recompute
// — Clear followed by Add of the members in placement order — replays
// the identical operations and therefore reproduces the identical
// state, which is what makes the exact-recompute fallback after
// removals sound.
//
// The zero value is unusable; call Reset first. A State belongs to one
// core of one backend and is not safe for concurrent use.
type State struct {
	k int

	// own[j-1] = U_j(j), the own-level utilization sums (the matrix
	// diagonal). own[K-1] is the Eq. 5 min-term numerator U_K(K).
	own []float64

	// ownSum = sum_j U_j(j), the Eq. 4 own-level load.
	ownSum float64

	// ownTail[i-1] = sum_{x=i}^{K-1} U_x(x): the top-down prefix the
	// Eq. 5 mu(i) accumulation needs, i = 1..K-1. Empty for K = 1.
	ownTail []float64

	// colTail[c-1] = sum_{x=c+1}^{K} U_x(c): the Eq. 6 lambda_{c+1}
	// numerator sums, c = 1..K-1. Empty for K = 1.
	colTail []float64

	// ukk1 = U_K(K-1), the second Eq. 5 min-term input. 0 for K = 1.
	ukk1 float64

	// buf is the contiguous backing array the three sum vectors above
	// are carved from (see Reset).
	buf []float64

	// mtVal caches the committed Eq. 5 min term when mtOK — a pure
	// function of own[K-1] and ukk1, so it is invalidated by Add and
	// Clear and shared by every probe whose candidate level is below K
	// (their virtual add leaves both min-term inputs untouched).
	mtVal float64
	mtOK  bool
}

// Reset re-dimensions the state for k criticality levels and clears
// it, reusing storage when the dimensions allow. The three sum vectors
// are carved out of one contiguous backing array — 3K-2 floats, one or
// two cache lines for practical K — so a whole query's reads stay
// local.
func (s *State) Reset(k int) {
	buf := resize(s.buf, 3*k-2)
	s.ResetSlab(k, buf)
}

// ResetSlab is Reset with caller-provided backing storage: the three
// sum vectors are carved from buf, which must hold at least 3K-2
// floats that the caller does not otherwise touch. Backends use it to
// pack every core's state into one contiguous slab, so a scan probing
// all cores in turn walks a few consecutive cache lines instead of
// m scattered allocations.
func (s *State) ResetSlab(k int, buf []float64) {
	s.k = k
	s.buf = buf[0 : 3*k-2]
	s.own = buf[0:k:k]
	s.ownTail = buf[k : 2*k-1 : 2*k-1]
	s.colTail = buf[2*k-1 : 3*k-2 : 3*k-2]
	s.Clear()
}

// Clear empties the core: all sums to zero, bitwise the state of a
// freshly Reset core.
//
//mc:allocfree zeroes amortized storage
func (s *State) Clear() {
	s.ownSum = 0
	s.ukk1 = 0
	s.mtOK = false
	for i := range s.own {
		s.own[i] = 0
	}
	for i := range s.ownTail {
		s.ownTail[i] = 0
	}
	for i := range s.colTail {
		s.colTail[i] = 0
	}
}

// OwnLoad returns the committed Eq. 4 own-level load sum_j U_j(j).
//
//mc:allocfree accessor
func (s *State) OwnLoad() float64 { return s.ownSum }

// Add commits one task of criticality crit with precomputed
// utilization row urow (Task.UtilRow) to the core: the O(1)-per-level
// delta update. Each cached sum receives exactly one addition of the
// row entry a query's probed read would have added, so post-Add
// committed queries are bitwise identical to the pre-Add probed
// queries for the same task.
//
//mc:allocfree scalar additions into amortized storage
func (s *State) Add(crit int, urow []float64) {
	k := s.k
	if k == 4 {
		s.add4(crit, urow)
		return
	}
	u := urow[crit-1]
	s.own[crit-1] += u
	s.ownSum += u
	if crit <= k-1 {
		// ownTail[i-1] covers x = i..K-1: row crit lands in every tail
		// with i <= crit.
		for i := 0; i < crit; i++ {
			s.ownTail[i] += u
		}
	}
	// colTail[c-1] covers rows x = c+1..K: row crit lands in every
	// column c <= crit-1.
	for c := 0; c < crit-1; c++ {
		s.colTail[c] += urow[c]
	}
	if crit == k && k >= 2 {
		s.ukk1 += urow[k-2]
		s.mtOK = false
	}
}

// add4 is Add unrolled for K = 4: one straight-line block per
// criticality level, each sum receiving exactly the one addition the
// generic loops would apply.
//
//mc:allocfree straight-line scalar additions
func (s *State) add4(crit int, urow []float64) {
	own, ownTail, colTail := s.own, s.ownTail, s.colTail
	_ = own[3]
	_ = ownTail[2]
	_ = colTail[2]
	switch crit {
	case 1:
		u := urow[0]
		own[0] += u
		s.ownSum += u
		ownTail[0] += u
	case 2:
		u := urow[1]
		own[1] += u
		s.ownSum += u
		ownTail[0] += u
		ownTail[1] += u
		colTail[0] += urow[0]
	case 3:
		u := urow[2]
		own[2] += u
		s.ownSum += u
		ownTail[0] += u
		ownTail[1] += u
		ownTail[2] += u
		colTail[0] += urow[0]
		colTail[1] += urow[1]
	default: // crit == 4
		u := urow[3]
		own[3] += u
		s.ownSum += u
		colTail[0] += urow[0]
		colTail[1] += urow[1]
		colTail[2] += urow[2]
		s.ukk1 += urow[2]
		s.mtOK = false
	}
}

// minTermWith returns the Eq. 5 min term
// min{ U_K(K), U_K(K-1)/(1 - U_K(K)) } of the subset with a task of
// criticality crit virtually added (crit = 0: the committed subset).
// Requires K >= 2.
//
//mc:allocfree pure arithmetic behind a scalar cache
func (s *State) minTermWith(crit int, urow []float64) float64 {
	k := s.k
	if crit != k {
		// The virtual add leaves both min-term inputs untouched:
		// return the committed value, computed at most once per Add.
		if !s.mtOK {
			s.mtVal = minTerm(s.own[k-1], s.ukk1)
			s.mtOK = true
		}
		return s.mtVal
	}
	return minTerm(s.own[k-1]+urow[k-1], s.ukk1+urow[k-2])
}

// minTerm is the Eq. 5 term min{ U_K(K), U_K(K-1)/(1 - U_K(K)) }.
//
//mc:allocfree pure arithmetic
func minTerm(ukk, ukk1 float64) float64 {
	mt := ukk
	if 1-ukk > Eps {
		if frac := ukk1 / (1 - ukk); frac < mt {
			mt = frac
		}
	}
	return mt
}

// fastGuard is the margin the O(1) overload reject keeps beyond Eps.
// The reject fires when U_{K-1}(K-1) + minTerm, that is mu(K-1), is
// clearly above 1: the Eq. 5 min term bounds every mu(k) from below and
// every theta(k) is at most 1, so no Theorem-1 condition can hold. The
// margin keeps the screen from ever contradicting the full analysis:
// the rounding difference between mu(K-1) computed from the cached
// sums and any mu(k) accumulated inside AnalyzeInto is bounded by a
// few ulps of K, orders of magnitude below this band.
const fastGuard = 1e-12

// SimpleFeasibleWith reports the Eq. 4 sufficient condition — own-level
// load at most 1 — for the subset with one task of criticality crit
// and utilization row urow virtually added. O(1).
//
//mc:allocfree one add and one compare
func (s *State) SimpleFeasibleWith(crit int, urow []float64) bool {
	return s.ownSum+urow[crit-1] <= 1+Eps
}

// UtilFloorWith returns a certified lower bound on the Eq. 9 core
// utilization (either reading) of the virtually probed subset, or -Inf
// when K < 2: any holding condition has theta(k) <= 1 and
// mu(k) >= mu(K-1), so core utilization is at least mu(K-1); a 1e-11
// band covers the summation rounding. O(1).
//
//mc:allocfree pure arithmetic
func (s *State) UtilFloorWith(crit int, urow []float64) float64 {
	k := s.k
	if k < 2 {
		return math.Inf(-1)
	}
	own1 := s.own[k-2]
	if crit == k-1 {
		own1 += urow[k-2]
	}
	return own1 + s.minTermWith(crit, urow) - 1e-11
}

// FeasibleWith reports the Theorem-1 verdict for the subset with a
// task of criticality crit and utilization row urow virtually added,
// without mutating anything: the full ladder in O(K). The lambda
// recursion stops at the first holding condition or the first invalid
// factor, exactly like the committed analysis scan. The O(1) overload
// reject (see fastGuard) runs first, sharing the min-term
// computation, so callers need not screen separately.
//
// urow must be the full K-length row of Task.UtilRow (as for every
// probed State query): entries above crit are never read as values,
// but the K = 4 unrolled paths anchor their bounds-check elimination
// on the row's full length.
//
//mc:allocfree scalar reads and a fixed-depth recursion
func (s *State) FeasibleWith(crit int, urow []float64) bool {
	k := s.k
	if k == 1 {
		u := s.own[0]
		if crit == 1 {
			u += urow[0]
		}
		return u <= 1+Eps
	}
	minTerm := s.minTermWith(crit, urow)
	own1 := s.own[k-2]
	if crit == k-1 {
		own1 += urow[k-2]
	}
	if own1+minTerm > 1+Eps+fastGuard {
		return false // the overload reject
	}
	if k == 4 && crit > 0 {
		return s.feasibleWith4(crit, urow, minTerm)
	}
	// The Eq. 6 recursion of lambdaStep, unrolled in place: identical
	// float operations in identical order, minus the per-level call.
	own, colTail, ownTail := s.own, s.colTail, s.ownTail
	theta := 1.0
	lambda := 0.0 // lambda_1
	prod := 1.0   // prod_{x<j} (1 - lambda_x)
	for cond := 1; cond <= k-1; cond++ {
		if cond >= 2 {
			prod *= 1 - lambda
			if prod <= Eps {
				return false
			}
			num := colTail[cond-2]
			if crit >= cond {
				num += urow[cond-2]
			}
			dd := own[cond-2]
			if crit == cond-1 {
				dd += urow[cond-2]
			}
			rem := prod - dd
			if rem <= Eps*prod {
				return false
			}
			l := num / rem
			if l < 0 || l >= 1 {
				return false
			}
			lambda = l
		}
		theta *= 1 - lambda
		tail := ownTail[cond-1]
		if crit >= cond && crit <= k-1 {
			tail += urow[crit-1]
		}
		if theta-(tail+minTerm) >= -Eps {
			return true
		}
	}
	return false
}

// feasibleWith4 is the generic FeasibleWith recursion fully unrolled
// for K = 4 (the paper's default dimension) and a real candidate
// (crit >= 1). The float operations are those of the generic loop in
// the same order; the factors the loop multiplies by exactly 1.0
// (lambda_1 = 0) are elided, which is bitwise identity, and every
// bounds check resolves at compile time. The caller has already run
// the k == 1 head and the overload fast-reject.
//
//mc:allocfree straight-line scalar arithmetic
func (s *State) feasibleWith4(crit int, urow []float64, minTerm float64) bool {
	own, colTail, ownTail := s.own, s.colTail, s.ownTail
	_ = own[1]
	_ = colTail[1]
	_ = ownTail[2]
	_ = urow[2]

	// Condition 1: theta = 1 (lambda_1 = 0).
	tail := ownTail[0]
	if crit <= 3 {
		tail += urow[crit-1]
	}
	if 1-(tail+minTerm) >= -Eps {
		return true
	}

	// Condition 2: lambda_2 with running product P = 1.
	num := colTail[0]
	if crit >= 2 {
		num += urow[0]
	}
	dd := own[0]
	if crit == 1 {
		dd += urow[0]
	}
	rem := 1 - dd
	if rem <= Eps {
		return false
	}
	l2 := num / rem
	if l2 < 0 || l2 >= 1 {
		return false
	}
	theta := 1 - l2
	tail = ownTail[1]
	if crit == 2 || crit == 3 {
		tail += urow[crit-1]
	}
	if theta-(tail+minTerm) >= -Eps {
		return true
	}

	// Condition 3: lambda_3 with P = 1 - lambda_2.
	prod := 1 - l2
	if prod <= Eps {
		return false
	}
	num = colTail[1]
	if crit >= 3 {
		num += urow[1]
	}
	dd = own[1]
	if crit == 2 {
		dd += urow[1]
	}
	rem = prod - dd
	if rem <= Eps*prod {
		return false
	}
	l3 := num / rem
	if l3 < 0 || l3 >= 1 {
		return false
	}
	theta *= 1 - l3
	tail = ownTail[2]
	if crit == 3 {
		tail += urow[2]
	}
	return theta-(tail+minTerm) >= -Eps
}

// muWith returns mu(cond) of the virtually probed subset: the cached
// own-level tail plus the probe's own-level entry (when its level lies
// in the tail) plus the min term, associated exactly as the committed
// read after Add would be.
//
//mc:allocfree pure arithmetic
func (s *State) muWith(cond int, minTerm float64, crit int, urow []float64) float64 {
	tail := s.ownTail[cond-1]
	if crit >= cond && crit <= s.k-1 {
		tail += urow[crit-1]
	}
	return tail + minTerm
}

// lambdaStep advances the Eq. 6 recursion from lambda_{j-1} to
// lambda_j (j = cond >= 2) on the virtually probed subset, returning
// the new factor and running product. ok is false when the factor is
// invalid (denominator at most 0, vanished product, or value outside
// [0, 1)) — which poisons every later theta exactly as in the
// committed analysis.
//
//mc:allocfree pure arithmetic
func (s *State) lambdaStep(j int, lambda, prod float64, crit int, urow []float64) (float64, float64, bool) {
	prod *= 1 - lambda
	if prod <= Eps {
		return 0, prod, false
	}
	num := s.colTail[j-2]
	if crit >= j {
		num += urow[j-2]
	}
	dd := s.own[j-2]
	if crit == j-1 {
		dd += urow[j-2]
	}
	// Multiply Eq. 6 through by P: (num/P) / (1 - dd/P) = num/(P - dd),
	// one division instead of three. The denominator-validity test
	// 1 - dd/P <= Eps becomes P - dd <= Eps*P (P > 0 here).
	rem := prod - dd
	if rem <= Eps*prod {
		return 0, prod, false
	}
	l := num / rem
	if l < 0 || l >= 1 {
		return l, prod, false
	}
	return l, prod, true
}

// ProbeEval is the scalar analysis summary of one probed (or
// committed) subset: the Eq. 9 core utilization in both readings and
// the smallest holding Theorem-1 condition. It is the value a
// minimum-increment probe needs and the value KeepProbe/Place commit.
type ProbeEval struct {
	// CoreUtil is U^Psi per Eq. 9 (+Inf when no condition holds);
	// CoreUtilWorst the literal worst-condition reading. They coincide
	// for K <= 2.
	CoreUtil, CoreUtilWorst float64
	// FeasibleK is the smallest holding condition level, or 0.
	FeasibleK int
}

// EvalWith analyzes the subset with a task of criticality crit and row
// urow virtually added (crit = 0, urow = nil: the committed subset)
// and fills ev. O(K); nothing is mutated. The O(1) overload reject
// runs first — when it fires, no condition can hold and ev keeps the
// infeasible readings — so callers need not screen separately.
//
//mc:allocfree fills a caller-owned scalar struct
func (s *State) EvalWith(crit int, urow []float64, ev *ProbeEval) {
	k := s.k
	ev.FeasibleK = 0
	ev.CoreUtil = math.Inf(1)
	ev.CoreUtilWorst = math.Inf(1)
	if k == 1 {
		u := s.own[0]
		if crit == 1 {
			u += urow[0]
		}
		if u <= 1+Eps {
			ev.FeasibleK = 1
			ev.CoreUtil = u
			ev.CoreUtilWorst = u
		}
		return
	}
	minTerm := s.minTermWith(crit, urow)
	own1 := s.own[k-2]
	if crit == k-1 {
		own1 += urow[k-2]
	}
	if own1+minTerm > 1+Eps+fastGuard {
		return // the overload reject: nothing holds
	}
	if k == 4 && crit > 0 {
		s.evalWith4(crit, urow, minTerm, ev)
		return
	}
	s.evalScan(crit, urow, minTerm, ev)
}

// evalScan is the generic condition scan of EvalWith, after the k == 1
// head, the overload fast-reject and the min-term computation.
//
//mc:allocfree scalar reads and a fixed-depth recursion
func (s *State) evalScan(crit int, urow []float64, minTerm float64, ev *ProbeEval) {
	k := s.k
	// The Eq. 6 recursion of lambdaStep, unrolled in place: identical
	// float operations in identical order, minus the per-level call. An
	// invalid factor poisons every later condition, so the scan stops
	// there (the skipped iterations contribute nothing).
	own, colTail, ownTail := s.own, s.colTail, s.ownTail
	theta := 1.0
	lambda := 0.0
	prod := 1.0
	bestUtil := math.Inf(1)
	worstUtil := math.Inf(-1)
	for cond := 1; cond <= k-1; cond++ {
		if cond >= 2 {
			prod *= 1 - lambda
			if prod <= Eps {
				break
			}
			num := colTail[cond-2]
			if crit >= cond {
				num += urow[cond-2]
			}
			dd := own[cond-2]
			if crit == cond-1 {
				dd += urow[cond-2]
			}
			rem := prod - dd
			if rem <= Eps*prod {
				break
			}
			l := num / rem
			if l < 0 || l >= 1 {
				break
			}
			lambda = l
		}
		theta *= 1 - lambda
		tail := ownTail[cond-1]
		if crit >= cond && crit <= k-1 {
			tail += urow[crit-1]
		}
		a := theta - (tail + minTerm)
		if a >= -Eps {
			if ev.FeasibleK == 0 {
				ev.FeasibleK = cond
			}
			u := 1 - a
			if u < bestUtil {
				bestUtil = u
			}
			if u > worstUtil {
				worstUtil = u
			}
		}
	}
	if ev.FeasibleK > 0 {
		ev.CoreUtil = bestUtil
		ev.CoreUtilWorst = worstUtil
	}
}

// ProbeBoundedWith is EvalWith behind the certified UtilFloorWith
// prune, folded into one scalar head: when floor - base >= margin the
// probed subset cannot beat the incumbent minimum-increment candidate,
// so the analysis is skipped — ev is left untouched and the call
// returns false. Otherwise ev receives exactly EvalWith's analysis and
// the call returns true. The prune comparison and the analysis perform
// bitwise the operations of UtilFloorWith followed by EvalWith, so a
// caller testing `UtilFloorWith - base >= margin` before EvalWith gets
// identical outcomes with the min term and the Eq. 5 head computed
// once instead of twice.
//
//mc:allocfree one fused scalar head plus the EvalWith scan
func (s *State) ProbeBoundedWith(crit int, urow []float64, base, margin float64, ev *ProbeEval) bool {
	k := s.k
	if k == 1 {
		// UtilFloorWith is -Inf for K < 2: the prune can never fire.
		s.EvalWith(crit, urow, ev)
		return true
	}
	minTerm := s.minTermWith(crit, urow)
	own1 := s.own[k-2]
	if crit == k-1 {
		own1 += urow[k-2]
	}
	if own1+minTerm-1e-11-base >= margin {
		return false
	}
	ev.FeasibleK = 0
	ev.CoreUtil = math.Inf(1)
	ev.CoreUtilWorst = math.Inf(1)
	if own1+minTerm > 1+Eps+fastGuard {
		return true // overload reject: ev holds the infeasible readings
	}
	if k == 4 && crit > 0 {
		s.evalWith4(crit, urow, minTerm, ev)
		return true
	}
	s.evalScan(crit, urow, minTerm, ev)
	return true
}

// evalWith4 is the generic EvalWith scan fully unrolled for K = 4 and
// a real candidate (crit >= 1), mirroring feasibleWith4: identical
// float operations in identical order, with the exact-1.0 factors
// elided and every bounds check resolved at compile time. The caller
// has already run the k == 1 head and the overload fast-reject, and
// initialized ev to the infeasible readings.
//
//mc:allocfree straight-line scalar arithmetic into a caller struct
func (s *State) evalWith4(crit int, urow []float64, minTerm float64, ev *ProbeEval) {
	own, colTail, ownTail := s.own, s.colTail, s.ownTail
	_ = own[1]
	_ = colTail[1]
	_ = ownTail[2]
	_ = urow[2]
	bestUtil := math.Inf(1)
	worstUtil := math.Inf(-1)

	// Condition 1: theta = 1 (lambda_1 = 0).
	tail := ownTail[0]
	if crit <= 3 {
		tail += urow[crit-1]
	}
	if a := 1 - (tail + minTerm); a >= -Eps {
		ev.FeasibleK = 1
		u := 1 - a
		bestUtil, worstUtil = u, u
	}

	// The conditions 2..3 chain; an invalid lambda factor poisons the
	// rest, exiting the block.
	for {
		// Condition 2: lambda_2 with running product P = 1.
		num := colTail[0]
		if crit >= 2 {
			num += urow[0]
		}
		dd := own[0]
		if crit == 1 {
			dd += urow[0]
		}
		rem := 1 - dd
		if rem <= Eps {
			break
		}
		l2 := num / rem
		if l2 < 0 || l2 >= 1 {
			break
		}
		theta := 1 - l2
		tail = ownTail[1]
		if crit == 2 || crit == 3 {
			tail += urow[crit-1]
		}
		if a := theta - (tail + minTerm); a >= -Eps {
			if ev.FeasibleK == 0 {
				ev.FeasibleK = 2
			}
			u := 1 - a
			if u < bestUtil {
				bestUtil = u
			}
			if u > worstUtil {
				worstUtil = u
			}
		}

		// Condition 3: lambda_3 with P = 1 - lambda_2.
		prod := 1 - l2
		if prod <= Eps {
			break
		}
		num = colTail[1]
		if crit >= 3 {
			num += urow[1]
		}
		dd = own[1]
		if crit == 2 {
			dd += urow[1]
		}
		rem = prod - dd
		if rem <= Eps*prod {
			break
		}
		l3 := num / rem
		if l3 < 0 || l3 >= 1 {
			break
		}
		theta *= 1 - l3
		tail = ownTail[2]
		if crit == 3 {
			tail += urow[2]
		}
		if a := theta - (tail + minTerm); a >= -Eps {
			if ev.FeasibleK == 0 {
				ev.FeasibleK = 3
			}
			u := 1 - a
			if u < bestUtil {
				bestUtil = u
			}
			if u > worstUtil {
				worstUtil = u
			}
		}
		break
	}
	if ev.FeasibleK > 0 {
		ev.CoreUtil = bestUtil
		ev.CoreUtilWorst = worstUtil
	}
}

// Eval analyzes the committed subset into ev. O(K).
//
//mc:allocfree delegates to EvalWith
func (s *State) Eval(ev *ProbeEval) {
	s.EvalWith(0, nil, ev)
}

// ReportInto fills r with the full committed analysis — the lambda
// vector with validity flags, mu/theta/availability per condition, the
// smallest holding condition and both Eq. 9 readings — in O(K),
// reusing r's storage. The Report layout matches AnalyzeInto's; the
// sums behind the scalar fields are the delta-maintained ones, so the
// values are bitwise those of every other State query.
//
//mc:allocfree report slices reused at capacity
func (s *State) ReportInto(r *Report) {
	k := s.k
	r.K = k
	r.Lambda = resize(r.Lambda, k)
	r.LambdaOK = resizeBool(r.LambdaOK, k)
	r.Mu = resize(r.Mu, k-1)
	r.Theta = resize(r.Theta, k-1)
	r.Avail = resize(r.Avail, k-1)
	r.FeasibleK = 0
	r.CoreUtil = math.Inf(1)
	r.CoreUtilWorst = math.Inf(1)

	if k == 1 {
		u := s.own[0]
		if u <= 1+Eps {
			r.FeasibleK = 1
			r.CoreUtil = u
			r.CoreUtilWorst = u
		}
		return
	}

	minTerm := s.minTermWith(0, nil)
	r.Lambda[0], r.LambdaOK[0] = 0, true
	lambda := 0.0
	prod := 1.0
	valid := true
	for j := 2; j <= k; j++ {
		if !valid {
			r.Lambda[j-1], r.LambdaOK[j-1] = math.NaN(), false
			continue
		}
		var l float64
		l, prod, valid = s.lambdaStep(j, lambda, prod, 0, nil)
		if !valid {
			// lambdaStep reports the out-of-range value itself (and 0
			// for the structural failures, where lambdas records NaN).
			//lint:ignore mclint/floateq deliberately exact: 0 is lambdaStep's structural-failure sentinel, never a computed recursion value (those are < 0 or >= 1 on failure)
			if l == 0 {
				l = math.NaN()
			}
			r.Lambda[j-1], r.LambdaOK[j-1] = l, false
			continue
		}
		lambda = l
		r.Lambda[j-1], r.LambdaOK[j-1] = l, true
	}

	theta := 1.0
	valid = true
	bestUtil := math.Inf(1)
	worstUtil := math.Inf(-1)
	for cond := 1; cond <= k-1; cond++ {
		r.Mu[cond-1] = s.muWith(cond, minTerm, 0, nil)
		if valid && r.LambdaOK[cond-1] {
			theta *= 1 - r.Lambda[cond-1]
		} else {
			valid = false
		}
		if !valid {
			r.Theta[cond-1] = math.Inf(-1)
			r.Avail[cond-1] = math.Inf(-1)
			continue
		}
		r.Theta[cond-1] = theta
		a := theta - r.Mu[cond-1]
		r.Avail[cond-1] = a
		if a >= -Eps {
			if r.FeasibleK == 0 {
				r.FeasibleK = cond
			}
			u := 1 - a
			if u < bestUtil {
				bestUtil = u
			}
			if u > worstUtil {
				worstUtil = u
			}
		}
	}
	if r.FeasibleK > 0 {
		r.CoreUtil = bestUtil
		r.CoreUtilWorst = worstUtil
	}
}
