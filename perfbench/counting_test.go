package main

import (
	"slices"
	"testing"

	"catpa/internal/fpamc"
	"catpa/internal/partition"
	"catpa/internal/taskgen"
)

// TestCountingBackendIsTransparent checks that a Partitioner on the
// counting wrapper gives bitwise the verdicts, assignments and session
// decisions of one on the unwrapped backend, for both backends and
// every scheme, while actually counting.
func TestCountingBackendIsTransparent(t *testing.T) {
	process := taskgen.Poisson{Rate: 0.08, MeanLifetime: 1000}
	for _, backend := range []string{partition.DefaultBackend, fpamc.BackendName} {
		k := 4
		if backend == fpamc.BackendName {
			k = 2
		}
		cfg := taskgen.DefaultConfig()
		cfg.K = k
		cfg.N = taskgen.IntRange{Lo: 20, Hi: 80}
		be, err := partition.NewBackend(backend)
		if err != nil {
			t.Fatal(err)
		}
		plain := partition.NewWithBackend(8, k, be)
		counted, cb, err := newCounted(backend, 8, k)
		if err != nil {
			t.Fatal(err)
		}
		sb := taskgen.NewStreamBuilder()
		for _, nsu := range []float64{0.5, 0.7, 0.9, 1.2} {
			cfg.NSU = nsu
			for i := 0; i < 25; i++ {
				ts := taskgen.GenerateIndexed(&cfg, 7, i)
				for _, s := range partition.Schemes {
					a, b := plain.Evaluate(ts, s, nil), counted.Evaluate(ts, s, nil)
					if !sameEval(a, b) {
						t.Fatalf("%s %s NSU %v set %d: counted %+v, plain %+v", backend, s, nsu, i, b, a)
					}
					ra := plain.Run(ts, s, nil)
					wantAssign := slices.Clone(ra.Assignment)
					rb := counted.Run(ts, s, nil)
					if ra.Feasible != rb.Feasible || !slices.Equal(wantAssign, rb.Assignment) {
						t.Fatalf("%s %s NSU %v set %d: counted assignment %v, plain %v", backend, s, nsu, i, rb.Assignment, wantAssign)
					}
				}
				events := sb.Build(process, len(ts.Tasks), 4000, 7, i)
				plain.StartIncremental(ts, partition.CATPA, nil)
				counted.StartIncremental(ts, partition.CATPA, nil)
				for j, ev := range events {
					var a, b int
					switch {
					case ev.Arrive:
						a, _ = plain.Admit(ev.Task)
						b, _ = counted.Admit(ev.Task)
					case plain.Assigned(ev.Task) >= 0:
						a = plain.Release(ev.Task)
						b = counted.Release(ev.Task)
					}
					if a != b {
						t.Fatalf("%s session NSU %v set %d event %d: counted core %d, plain %d", backend, nsu, i, j, b, a)
					}
				}
			}
		}
		if cb.attempts() == 0 || cb.places == 0 || cb.removes == 0 {
			t.Errorf("%s: counted %d probes, %d places, %d removes; want all positive", backend, cb.attempts(), cb.places, cb.removes)
		}
		if cb.useful() > cb.attempts() {
			t.Errorf("%s: %d useful probes out of %d", backend, cb.useful(), cb.attempts())
		}
	}
}
