package serve

import (
	"fmt"

	"catpa/internal/mc"
)

// ScreenVerdict is the outcome of the probe-only utilization screen.
type ScreenVerdict int

const (
	// ScreenUncertain: no necessary condition is violated; only a full
	// backend analysis can decide.
	ScreenUncertain ScreenVerdict = iota
	// ScreenReject: a necessary feasibility condition fails, so no
	// partition of the set passes any backend's per-core analysis —
	// a certified reject.
	ScreenReject
)

// Screen is the daemon's degraded-tier admission test: a probe-style
// O(N·K) utilization screen in the spirit of the edfvd probe screens
// (State.UtilFloorWith and friends), built only from conditions that
// are *necessary* for per-core schedulability under every registered
// backend. It therefore only ever rejects sets the full analysis
// would reject too — the load-shedding tier can answer "rejected"
// soundly, and must answer "uncertain" otherwise. The differential
// screen-soundness test (screen_test.go) proves the subset property
// against both backends across every scheme.
//
// Conditions, each implied by "some partition onto m unit-speed cores
// keeps every core's mode-j utilization at most 1" (mode-j demand on a
// core includes every task of criticality at least j at its level-j
// budget — necessary for EDF-VD Theorem 1 and for the AMC-rtb
// response-time fixed points alike):
//
//  1. the level-j total utilization U(j) (Eq. 2) exceeds m for some j
//     — pigeonhole: some core's mode-j utilization exceeds 1;
//  2. more than m tasks of criticality at least j have level-j
//     utilization above 1/2 for some j — any two such tasks sharing a
//     core push its mode-j utilization past 1, so they need more than
//     m cores.
//
// A third classical condition — a single task whose own-level
// utilization exceeds 1 — needs no check here: mc.Task.Validate
// already rejects such tasks, and every set reaching the screen has
// been validated.
func Screen(ts *mc.TaskSet, m, k int) (ScreenVerdict, string) {
	for j := 1; j <= k; j++ {
		if u := ts.TotalUtilAt(j); u > float64(m)+mc.Eps {
			return ScreenReject, fmt.Sprintf("level-%d utilization %.4f exceeds the platform capacity m=%d", j, u, m)
		}
		heavy := 0
		for i := range ts.Tasks {
			t := &ts.Tasks[i]
			if t.Crit >= j && t.Util(j) > 0.5+mc.Eps {
				heavy++
			}
		}
		if heavy > m {
			return ScreenReject, fmt.Sprintf("%d tasks with level-%d utilization above 1/2 cannot share m=%d cores", heavy, j, m)
		}
	}
	return ScreenUncertain, ""
}

// String renders the verdict for logs and tests.
func (v ScreenVerdict) String() string {
	switch v {
	case ScreenUncertain:
		return "uncertain"
	case ScreenReject:
		return "reject"
	default:
		return fmt.Sprintf("ScreenVerdict(%d)", int(v))
	}
}
