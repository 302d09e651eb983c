package edfvd

import (
	"math"

	"catpa/internal/mc"
)

// Eps is the feasibility tolerance: a condition mu(k) <= theta(k) is
// accepted when mu(k) <= theta(k) + Eps.
const Eps = 1e-9

// Report is the full analysis of one core's task subset.
//
// Slices are indexed as documented on each field; they are reused by
// AnalyzeInto, so callers that retain a Report across calls must clone
// it first.
type Report struct {
	// K is the number of system criticality levels the analysis ran with.
	K int

	// Lambda[j-1] = lambda_j (Eq. 6), for j = 1..K; Lambda[0] = 0.
	Lambda []float64

	// LambdaOK[j-1] reports whether lambda_j is well defined and lies
	// in [0, 1). A condition k can only hold if LambdaOK[j-1] for all
	// j <= k.
	LambdaOK []bool

	// Mu[k-1] = mu(k) and Theta[k-1] = theta(k) for k = 1..K-1
	// (Eq. 5); Avail[k-1] = A(k) = theta(k) - mu(k) (Eq. 8). When a
	// lambda required by theta(k) is invalid, Theta[k-1] and
	// Avail[k-1] are -Inf. For K = 1 the slices are empty.
	Mu, Theta, Avail []float64

	// FeasibleK is the smallest k in 1..K-1 whose condition holds
	// (Theorem 1), or 0 if none does. For K = 1 it is 1 when
	// U_1(1) <= 1, else 0.
	FeasibleK int

	// CoreUtil is U^Psi per Eq. 9: +Inf when no condition holds,
	// otherwise 1 - max over feasible k of A(k) — one minus the best
	// available utilization among the conditions that hold (see
	// DESIGN.md section 3 for the reconstruction of the mangled
	// formula; for K = 2 the reading is unambiguous since only k = 1
	// exists). For K = 1 it is U_1(1) (or +Inf when > 1).
	CoreUtil float64

	// CoreUtilWorst is the alternative literal reading of Eq. 9,
	// max_{A(k)>=0} (1 - A(k)) — one minus the smallest available
	// utilization among the holding conditions. It equals CoreUtil
	// for K <= 2 and exists for the ablation study
	// (BenchmarkAblationEq9Literal).
	CoreUtilWorst float64
}

// Feasible reports whether the analyzed subset is schedulable by
// EDF-VD, i.e. whether at least one Theorem-1 condition holds.
//
//mc:allocfree accessor
func (r *Report) Feasible() bool { return r.FeasibleK > 0 }

// Clone deep-copies the report.
func (r *Report) Clone() *Report {
	c := *r
	c.Lambda = append([]float64(nil), r.Lambda...)
	c.LambdaOK = append([]bool(nil), r.LambdaOK...)
	c.Mu = append([]float64(nil), r.Mu...)
	c.Theta = append([]float64(nil), r.Theta...)
	c.Avail = append([]float64(nil), r.Avail...)
	return &c
}

// Analyze runs the full Theorem-1 analysis on the subset described by m.
func Analyze(m *mc.UtilMatrix) *Report {
	r := &Report{}
	AnalyzeInto(m, r)
	return r
}

// AnalyzeInto is Analyze with caller-provided storage; it reuses the
// report's slices when their capacity suffices, making the CA-TPA probe
// loop allocation-free after warm-up.
//
// It reads the matrix through its raw backing slice (UtilMatrix.Data)
// to keep the partitioning inner loop free of per-entry bounds checks;
// every arithmetic operation is performed in the same order as the
// entry-wise formulation, so reports are bit-identical to it.
//
//mc:allocfree report slices reused at capacity
func AnalyzeInto(m *mc.UtilMatrix, r *Report) {
	k := m.K()
	d := m.Data() // d[(j-1)*k + (k'-1)] = U_j(k')
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
		// Single-criticality systems reduce to plain EDF: U_1(1) <= 1.
		u := d[0]
		if u <= 1+Eps {
			r.FeasibleK = 1
			r.CoreUtil = u
			r.CoreUtilWorst = u
		}
		return
	}

	lambdas(d, k, r.Lambda, r.LambdaOK)

	// The min term of Eq. 5 is independent of k:
	// min{ U_K(K), U_K(K-1) / (1 - U_K(K)) }.
	ukk := d[(k-1)*k+(k-1)]
	ukk1 := d[(k-1)*k+(k-2)]
	minTerm := ukk
	if 1-ukk > Eps {
		if frac := ukk1 / (1 - ukk); frac < minTerm {
			minTerm = frac
		}
	}

	// sumOwn accumulates sum_{i=cond}^{K-1} U_i(i); build it from the
	// top down so each condition is O(1) after the prefix pass.
	theta := 1.0
	valid := true
	// First pass computes mu for every condition level.
	sumOwn := 0.0
	for i := k - 1; i >= 1; i-- {
		sumOwn += d[(i-1)*k+(i-1)]
		r.Mu[i-1] = sumOwn + minTerm
	}
	bestUtil := math.Inf(1)
	worstUtil := math.Inf(-1)
	for cond := 1; cond <= k-1; cond++ {
		// theta(cond) = prod_{j=1}^{cond} (1 - lambda_j).
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
			// Eq. 9b: core utilization is one minus the largest
			// available utilization among the holding conditions.
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

// Feasible reports whether the subset passes at least one Theorem-1
// condition (Proposition 2 applied to a single core). It avoids
// building a Report.
func Feasible(m *mc.UtilMatrix) bool {
	var r Report
	AnalyzeInto(m, &r)
	return r.Feasible()
}

// CoreUtil returns U^Psi per Eq. 9 (+Inf when infeasible).
func CoreUtil(m *mc.UtilMatrix) float64 {
	var r Report
	AnalyzeInto(m, &r)
	return r.CoreUtil
}

// SimpleFeasible implements the pessimistic sufficient condition of
// Eq. 4: sum_k U_k^Psi(k) <= 1, under which the subset is schedulable
// by plain EDF (no virtual deadlines needed).
//
//mc:allocfree one matrix sum
func SimpleFeasible(m *mc.UtilMatrix) bool {
	return m.OwnLevelLoad() <= 1+Eps
}

// DualFeasible implements the dual-criticality specialization Eq. 7:
//
//	U_1(1) + min{ U_2(2), U_2(1)/(1 - U_2(2)) } <= 1.
//
// It panics if the matrix was not built for K = 2. It must agree with
// Feasible on every dual-criticality subset; the general path is
// preferred in production code, this entry point exists as a
// cross-check and for documentation value.
func DualFeasible(m *mc.UtilMatrix) bool {
	if m.K() != 2 {
		panic("edfvd: DualFeasible requires K = 2")
	}
	u11 := m.At(1, 1)
	u22 := m.At(2, 2)
	u21 := m.At(2, 1)
	minTerm := u22
	if 1-u22 > Eps {
		if frac := u21 / (1 - u22); frac < minTerm {
			minTerm = frac
		}
	}
	return u11+minTerm <= 1+Eps
}

// ClassicDualFeasible implements the original dual-criticality EDF-VD
// schedulability test of Baruah et al. (2012), which the paper's
// simpler Eq. 7 condition under-approximates: the set is schedulable
// if plain EDF suffices (U_1(1) + U_2(2) <= 1) or if a virtual-deadline
// scaling factor x exists with
//
//	U_2(1)/(1 - U_1(1))  <=  x  <=  (1 - U_2(2))/U_1(1).
//
// Every Eq. 7-feasible subset is ClassicDualFeasible (the tests verify
// the implication on random subsets), but not vice versa — the classic
// test accepts strictly more sets. The runtime simulator's lambda_2
// equals the left endpoint of the x interval, so classic-accepted
// subsets also execute miss-free under it. Panics if K != 2.
func ClassicDualFeasible(m *mc.UtilMatrix) bool {
	if m.K() != 2 {
		panic("edfvd: ClassicDualFeasible requires K = 2")
	}
	u11 := m.At(1, 1)
	u22 := m.At(2, 2)
	u21 := m.At(2, 1)
	if u11+u22 <= 1+Eps {
		return true // plain EDF
	}
	if u11 >= 1-Eps || u22 >= 1-Eps {
		return false
	}
	lo := u21 / (1 - u11)
	hi := (1 - u22) / u11
	return lo <= hi+Eps && lo < 1
}

// Lambdas computes the virtual-deadline reduction factors lambda_j of
// Eq. 6 for the subset. lambda[0] = lambda_1 = 0. ok[j-1] reports
// whether lambda_j is well defined and in [0, 1).
func Lambdas(m *mc.UtilMatrix) (lambda []float64, ok []bool) {
	k := m.K()
	lambda = make([]float64, k)
	ok = make([]bool, k)
	lambdas(m.Data(), k, lambda, ok)
	return lambda, ok
}

// lambdas fills pre-sized slices with the Eq. 6 recursion:
//
//	lambda_1 = 0
//	lambda_j = [ sum_{x=j}^{K} U_x(j-1) / P ] / [ 1 - U_{j-1}(j-1)/P ]
//	           where P = prod_{x<j} (1 - lambda_x)
//
// Once a lambda_j is invalid (denominator <= 0 or value outside [0,1)),
// all subsequent factors are flagged invalid too, since the recursion
// depends on the running product.
//
// d is the raw row-major K x K matrix data (UtilMatrix.Data); the sums
// run in the same index order as the At-based formulation, so the
// factors are bit-identical to it.
//
//mc:allocfree fills pre-sized slices
func lambdas(d []float64, k int, lambda []float64, ok []bool) {
	lambda[0], ok[0] = 0, true
	prod := 1.0
	valid := true
	for j := 2; j <= k; j++ {
		if !valid {
			lambda[j-1], ok[j-1] = math.NaN(), false
			continue
		}
		prod *= 1 - lambda[j-2]
		if prod <= Eps {
			valid = false
			lambda[j-1], ok[j-1] = math.NaN(), false
			continue
		}
		var num float64
		// Column j-2, rows j..K: strength-reduced to one index += k per
		// step; additions run in the same row order as the x loop.
		for idx := (j-1)*k + (j - 2); idx < k*k; idx += k {
			num += d[idx]
		}
		// Eq. 6 multiplied through by P = prod: the quotient
		// (num/P) / (1 - U_{j-1}(j-1)/P) equals num / (P - U_{j-1}(j-1)),
		// computed with a single division; the denominator-validity test
		// 1 - U/P <= Eps becomes P - U <= Eps*P (P > 0 past the guard).
		rem := prod - d[(j-2)*k+(j-2)]
		if rem <= Eps*prod {
			valid = false
			lambda[j-1], ok[j-1] = math.NaN(), false
			continue
		}
		l := num / rem
		if l < 0 || l >= 1 {
			valid = false
			lambda[j-1], ok[j-1] = l, false
			continue
		}
		lambda[j-1], ok[j-1] = l, true
	}
}

// VDFactor returns the relative-deadline scaling factor applied to a
// task of criticality crit while its core operates at mode level mode:
// the cumulative product prod_{x=mode+1}^{crit} lambda_x. Tasks at or
// below the current mode (crit <= mode) run with their full deadlines
// (factor 1); in AMC they are dropped anyway once mode exceeds their
// level.
//
// For dual-criticality systems at mode 1 this reduces to the classical
// EDF-VD factor x = U_2(1)/(1 - U_1(1)).
//
//mc:allocfree cumulative product
func VDFactor(lambda []float64, mode, crit int) float64 {
	if crit <= mode {
		return 1
	}
	f := 1.0
	for x := mode + 1; x <= crit; x++ {
		f *= lambda[x-1]
	}
	return f
}

//
//mc:allocfree amortized: reallocates only on growth
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

//
//mc:allocfree amortized: reallocates only on growth
func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
