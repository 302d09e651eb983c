package main

import (
	"sync"
	"testing"
	"time"
)

func TestAttributeSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "replay", Start: 0, End: 100, Parent: -1},
		{Name: "taskgen.Generate", Start: 5, End: 15, Parent: 0},
		{Name: "partition.Evaluate/FFD", Start: 20, End: 60, Parent: 0},
		{Name: "edfvd.probe", Start: 30, End: 45, Parent: 2},
		{Name: "other", Start: 0, End: 1000, Parent: -1},
		{Name: "partition.Evaluate/WFD", Start: 70, End: 90, Parent: 0},
	}}
	lt := tr.attribute(0)
	want := map[string]time.Duration{"taskgen": 10, "partition": 25 + 20, "edfvd": 15}
	for l, d := range want {
		if lt.Self[l] != d {
			t.Errorf("self[%s] = %v, want %v", l, lt.Self[l], d)
		}
	}
	if len(lt.Self) != len(want) {
		t.Errorf("layers %v, want %v", lt.Self, want)
	}
	if lt.Wall != 100 || lt.Unattributed != 100-10-40-20 {
		t.Errorf("wall %v unattributed %v, want 100 and 30", lt.Wall, lt.Unattributed)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

// TestTracerConcurrentCallers records spans from several goroutines at
// once, as the closed-loop callers do.
func TestTracerConcurrentCallers(t *testing.T) {
	tr := newTracer()
	const callers, spans = 4, 200
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			root := tr.begin("loadgen.caller", -1, int64(c))
			for i := 0; i < spans; i++ {
				tr.end(tr.begin("http.roundtrip", root, int64(i)))
			}
			tr.end(root)
		}(c)
	}
	wg.Wait()
	lt := tr.attributeRoots(0, "loadgen.caller")
	if got := len(tr.spans); got != callers*(spans+1) {
		t.Fatalf("%d spans recorded, want %d", got, callers*(spans+1))
	}
	if lt.Self["http"] <= 0 || lt.Unattributed < 0 || lt.Self["http"]+lt.Unattributed != lt.Wall {
		t.Errorf("attribution %+v does not add up", lt)
	}
}
