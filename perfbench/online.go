package main

import (
	"time"

	"catpa/internal/experiments"
	"catpa/internal/mc"
	"catpa/internal/taskgen"
)

// onlineSets is the number of replications per NSU point of one
// measured online sweep: 5 points x 500 universes x 4 variants.
const onlineSets = 500

func onlineSweep(e *env) func() *experiments.Sweep {
	return func() *experiments.Sweep {
		sw := experiments.OnlineFigure(onlineSets, e.seed)
		sw.Workers = e.nproc
		return sw
	}
}

// admitCounts extracts the exact per-(point, variant) admitted and
// offered arrival counts of an online sweep.
func admitCounts(res *experiments.Result) (admitted, arrivals [][]int64) {
	admitted = make([][]int64, len(res.Points))
	arrivals = make([][]int64, len(res.Points))
	for pi, p := range res.Points {
		admitted[pi] = make([]int64, len(p.Cells))
		arrivals[pi] = make([]int64, len(p.Cells))
		for vi := range p.Cells {
			admitted[pi][vi] = p.Cells[vi].Online.Admitted.Hits()
			arrivals[pi][vi] = p.Cells[vi].Online.Admitted.N()
		}
	}
	return admitted, arrivals
}

func sum2(xs [][]int64) int64 {
	var n int64
	for _, row := range xs {
		for _, x := range row {
			n += x
		}
	}
	return n
}

// runOnline is the online-churn workload: OnlineFigure sweeps through
// runner.Run, and a direct session replay that checks every admitted
// and offered-arrival count and times each replication.
func runOnline(e *env, rep *report) error {
	return runSweepWorkload(e, rep, &sweepWorkload{
		mk: onlineSweep(e),
		work: func(res *experiments.Result) int64 {
			_, arrivals := admitCounts(res)
			return sum2(arrivals)
		},
		counts: func(res *experiments.Result) map[string][][]int64 {
			admitted, arrivals := admitCounts(res)
			return map[string][][]int64{"admitted": admitted, "arrivals": arrivals}
		},
		replayer: func(sw *experiments.Sweep, rep *report, root int, efforts map[string]*effort) replayer {
			return newOnlineReplayer(e, sw, root, efforts)
		},
		throughput: "online.verdicts_per_s",
		latency:    "online.replication_latency",
		effort:     "session",
		notes:      shedRatios,
	})
}

// shedRatios notes each variant's exact shed ratio over the replay.
func shedRatios(rep *report, sw *experiments.Sweep, rp replayer) {
	c := rp.counts()
	for vi, v := range sw.ActiveVariants() {
		var a, n int64
		for pi := range c["admitted"] {
			a += c["admitted"][pi][vi]
			n += c["arrivals"][pi][vi]
		}
		rep.note("partition.shed_ratio."+v.Label(), ratio(float64(n-a), float64(n)), "ratio")
	}
}

// onlineReplayer replays an online sweep: each replication's universe
// is generated, its event stream built, and one admission session per
// variant driven over it — Admit on arrival, Release on the departure
// of an admitted task.
type onlineReplayer struct {
	e         *env
	sw        *experiments.Sweep
	o         *experiments.OnlineScenario
	root      int
	variants  []experiments.Variant
	spanNames []string
	gen       *taskgen.Generator
	sb        *taskgen.StreamBuilder
	parts     sweepParts
	admitted  [][]int64
	arrivals  [][]int64
	lat       []time.Duration
	corpus    []*mc.TaskSet
}

func newOnlineReplayer(e *env, sw *experiments.Sweep, root int, efforts map[string]*effort) *onlineReplayer {
	r := &onlineReplayer{
		e:        e,
		sw:       sw,
		o:        sw.Scenario.(*experiments.OnlineScenario),
		root:     root,
		variants: sw.ActiveVariants(),
		gen:      taskgen.NewGenerator(),
		sb:       taskgen.NewStreamBuilder(),
		parts:    sweepParts{efforts: efforts},
		admitted: make([][]int64, len(sw.Values)),
		arrivals: make([][]int64, len(sw.Values)),
	}
	for _, v := range r.variants {
		r.spanNames = append(r.spanNames, "partition.session/"+v.String())
	}
	for pi := range sw.Values {
		r.admitted[pi] = make([]int64, len(r.variants))
		r.arrivals[pi] = make([]int64, len(r.variants))
	}
	return r
}

func (r *onlineReplayer) counts() map[string][][]int64 {
	return map[string][][]int64{"admitted": r.admitted, "arrivals": r.arrivals}
}
func (r *onlineReplayer) latencies() []time.Duration { return r.lat }
func (r *onlineReplayer) sample() []*mc.TaskSet      { return r.corpus }

func (r *onlineReplayer) run(chunk, of int) error {
	sw, tr := r.sw, r.e.tr
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
			id = tr.begin("taskgen.StreamBuilder.Build", r.root, req)
			events := r.sb.Build(r.o.Process, len(ts.Tasks), r.o.Horizon, sw.Seed, set)
			tr.end(id)
			for vi, v := range r.variants {
				part := r.parts.parts[backendName(v)]
				id := tr.begin(r.spanNames[vi], r.root, req)
				part.StartIncremental(ts, v.Scheme, &opts)
				var offered, ok, released int64
				for _, ev := range events {
					if ev.Arrive {
						offered++
						if _, in := part.Admit(ev.Task); in {
							ok++
						}
					} else if part.Assigned(ev.Task) >= 0 {
						part.Release(ev.Task)
						released++
					}
				}
				tr.end(id)
				r.admitted[pi][vi] += ok
				r.arrivals[pi][vi] += offered
				if ef := r.parts.efforts[backendName(v)]; ef != nil {
					ef.decisions += offered
					ef.releases += released
				}
			}
			r.lat = append(r.lat, time.Since(t0))
			if set%sampleEvery == 0 && r.e.traced() {
				r.corpus = append(r.corpus, ts.Clone())
			}
		}
	}
	return nil
}
