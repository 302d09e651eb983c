package main

import (
	"time"

	"catpa/internal/experiments"
	"catpa/internal/mc"
	"catpa/internal/partition"
	"catpa/internal/taskgen"
)

func fig1Sweep(e *env) func() *experiments.Sweep {
	return func() *experiments.Sweep {
		sw := experiments.Figure(1, fig1Sets, e.seed)
		sw.Workers = e.nproc
		return sw
	}
}

// runFig1 is the fig1-sweep workload: Figure 1 sweeps through
// runner.Run, and a direct replay that checks every accept count and
// times each set.
func runFig1(e *env, rep *report) error {
	return runSweepWorkload(e, rep, &sweepWorkload{
		mk: fig1Sweep(e),
		work: func(res *experiments.Result) int64 {
			return int64(len(res.Points) * res.Sweep.Sets)
		},
		counts: func(res *experiments.Result) map[string][][]int64 {
			return map[string][][]int64{"accepted": acceptCounts(res)}
		},
		replayer: func(sw *experiments.Sweep, rep *report, root int, efforts map[string]*effort) replayer {
			return newStaticReplayer(e, sw, rep, root, efforts)
		},
		throughput: "sweep.sets_per_s",
		latency:    "sweep.set_latency",
		effort:     "batch",
	})
}

// staticReplayer replays a static sweep: each set is generated and
// evaluated by one Partitioner.Evaluate per variant. An untraced,
// uncounted replayer with a report also checks every sampleEvery-th
// set against the one-shot partition.Partition.
type staticReplayer struct {
	e         *env
	sw        *experiments.Sweep
	rep       *report
	root      int
	variants  []experiments.Variant
	spanNames []string
	gen       *taskgen.Generator
	parts     sweepParts
	evals     []partition.Eval
	hits      [][]int64
	lat       []time.Duration
	corpus    []*mc.TaskSet
}

func newStaticReplayer(e *env, sw *experiments.Sweep, rep *report, root int, efforts map[string]*effort) *staticReplayer {
	r := &staticReplayer{
		e:        e,
		sw:       sw,
		rep:      rep,
		root:     root,
		variants: sw.ActiveVariants(),
		gen:      taskgen.NewGenerator(),
		parts:    sweepParts{efforts: efforts},
		hits:     make([][]int64, len(sw.Values)),
	}
	r.evals = make([]partition.Eval, len(r.variants))
	for _, v := range r.variants {
		r.spanNames = append(r.spanNames, "partition.Evaluate/"+v.Scheme.String())
	}
	for pi := range r.hits {
		r.hits[pi] = make([]int64, len(r.variants))
	}
	return r
}

func (r *staticReplayer) counts() map[string][][]int64 {
	return map[string][][]int64{"accepted": r.hits}
}
func (r *staticReplayer) latencies() []time.Duration { return r.lat }
func (r *staticReplayer) sample() []*mc.TaskSet      { return r.corpus }

func (r *staticReplayer) run(chunk, of int) error {
	sw, tr := r.sw, r.e.tr
	oneShot := r.rep != nil && r.root < 0 && r.parts.efforts == nil
	for pi, x := range sw.Values {
		cfg, opts, p := pointConfig(sw, x)
		if err := r.parts.arm(r.variants, p.M, p.K); err != nil {
			return err
		}
		for set := 0; set < sw.Sets; set++ {
			idx := pi*sw.Sets + set
			if idx%of != chunk {
				continue
			}
			req := int64(idx)
			t0 := time.Now()
			id := tr.begin("taskgen.Generate", r.root, req)
			ts := r.gen.Generate(&cfg, sw.Seed, set)
			tr.end(id)
			for vi, v := range r.variants {
				part := r.parts.parts[backendName(v)]
				ef := r.parts.efforts[backendName(v)]
				var placed int64
				if ef != nil {
					placed = ef.cb.places
				}
				id := tr.begin(r.spanNames[vi], r.root, req)
				r.evals[vi] = part.Evaluate(ts, v.Scheme, &opts)
				tr.end(id)
				if ef != nil {
					ef.decisions += ef.cb.places - placed
					if !r.evals[vi].Feasible {
						ef.decisions++
					}
				}
			}
			r.lat = append(r.lat, time.Since(t0))
			for vi := range r.variants {
				if r.evals[vi].Feasible {
					r.hits[pi][vi]++
				}
			}
			if set%sampleEvery != 0 {
				continue
			}
			if r.e.traced() {
				r.corpus = append(r.corpus, ts.Clone())
			}
			if oneShot {
				r.checkOneShot(ts, p, &opts, x, set)
			}
		}
	}
	return nil
}

// checkOneShot compares the last evaluations with partition.Partition.
func (r *staticReplayer) checkOneShot(ts *mc.TaskSet, p experiments.Params, opts *partition.Options, x float64, set int) {
	for vi, v := range r.variants {
		if backendName(v) != partition.DefaultBackend {
			continue
		}
		res := partition.Partition(ts, p.M, p.K, v.Scheme, opts)
		ev := r.evals[vi]
		if res.Feasible != ev.Feasible || (res.Feasible && !sameFloats(res.Usys, ev.Usys, res.Uavg, ev.Uavg, res.Imbalance, ev.Imbalance)) {
			r.rep.mismatch("%s at %s=%v set %d: one-shot Partition feasible=%v, Evaluate %+v", v, r.sw.Param, x, set, res.Feasible, ev)
		}
	}
}
