package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"catpa/internal/experiments"
	"catpa/internal/mc"
	"catpa/internal/partition"
	"catpa/internal/serve"
	"catpa/internal/taskgen"
)

// schemeNames lists every scheme by its request name, in
// partition.Schemes order.
func schemeNames() []string {
	out := make([]string, len(partition.Schemes))
	for i, s := range partition.Schemes {
		out[i] = s.String()
	}
	return out
}

// ladder times each layer's public entry points, one call per span, on
// a corpus of the workload's own task sets (m cores, k levels):
// Evaluate per scheme and EvaluateAll; the event stream of the online
// scenario's arrival process and a CA-TPA admission session over it;
// and the admission request path in-process — decode, validate and
// hash, Server.ServeHTTP with the verdict cache off, and the response
// encoding. Layers a workload's own phases do not reach are measured
// here on its inputs, so every workload reports every layer metric.
// Counting-backend runs check that the generic dispatch path gives
// bitwise the same verdicts and count its analysis effort.
func ladder(e *env, corpus []*mc.TaskSet, m, k int, rep *report) error {
	tr := e.tr
	root := tr.begin("ladder", -1, 0)
	defer tr.end(root)

	part := partition.New(m, k)
	cpart, cb, err := newCounted(partition.DefaultBackend, m, k)
	if err != nil {
		return err
	}
	ef := &effort{cb: cb}
	evalSpans := make([]string, len(partition.Schemes))
	for i, s := range partition.Schemes {
		evalSpans[i] = "partition.Evaluate/" + s.String()
	}
	var all []partition.Eval
	for i, ts := range corpus {
		req := int64(i)
		for si, s := range partition.Schemes {
			id := tr.begin(evalSpans[si], root, req)
			ev := part.Evaluate(ts, s, nil)
			tr.end(id)
			placed := cb.places
			cev := cpart.Evaluate(ts, s, nil)
			if !sameEval(ev, cev) {
				rep.mismatch("counting backend: %s on set %d: %+v, unwrapped %+v", s, i, cev, ev)
			}
			ef.decisions += cb.places - placed
			if !cev.Feasible {
				ef.decisions++
			}
		}
		id := tr.begin("partition.EvaluateAll", root, req)
		all = part.EvaluateAll(ts, partition.Schemes, nil, all[:0])
		tr.end(id)
	}
	for si, s := range partition.Schemes {
		rep.set("partition.evaluate_us."+experiments.SchemeLabel(s), tr.meanMicros(root, evalSpans[si]), "us")
	}
	evalAll := tr.meanMicros(root, "partition.EvaluateAll")
	rep.set("partition.evaluate_all_us", evalAll, "us")

	if err := ladderSessions(e, corpus, root, part, cpart, ef, rep); err != nil {
		return err
	}
	ef.report(rep, partition.DefaultBackend, true)
	return ladderServe(e, corpus, m, k, root, evalAll, rep)
}

// ladderSessions streams each set through the online scenario's
// arrival process and replays a CA-TPA session over it, timing every
// Admit and Release; the counted session must make the same decisions.
func ladderSessions(e *env, corpus []*mc.TaskSet, root int, part, cpart *partition.Partitioner, ef *effort, rep *report) error {
	tr := e.tr
	o := experiments.OnlineFigure(1, e.seed).Scenario.(*experiments.OnlineScenario)
	sb := taskgen.NewStreamBuilder()
	var admitT, releaseT time.Duration
	var admits, releases int64
	for i, ts := range corpus {
		id := tr.begin("taskgen.StreamBuilder.Build", root, int64(i))
		events := sb.Build(o.Process, len(ts.Tasks), o.Horizon, e.seed, i)
		tr.end(id)
		cores := make([]int, len(events))
		part.StartIncremental(ts, partition.CATPA, nil)
		for j, ev := range events {
			t0 := time.Now()
			if ev.Arrive {
				cores[j], _ = part.Admit(ev.Task)
				admitT += time.Since(t0)
				admits++
			} else if part.Assigned(ev.Task) >= 0 {
				cores[j] = part.Release(ev.Task)
				releaseT += time.Since(t0)
				releases++
			}
		}
		cpart.StartIncremental(ts, partition.CATPA, nil)
		for j, ev := range events {
			c := 0
			if ev.Arrive {
				c, _ = cpart.Admit(ev.Task)
				ef.decisions++
			} else if cpart.Assigned(ev.Task) >= 0 {
				c = cpart.Release(ev.Task)
				ef.releases++
			}
			if c != cores[j] {
				rep.mismatch("counting backend: session on set %d event %d: core %d, unwrapped %d", i, j, c, cores[j])
				break
			}
		}
	}
	rep.set("taskgen.stream_us", tr.meanMicros(root, "taskgen.StreamBuilder.Build"), "us")
	rep.set("partition.admit_ns", ratio(float64(admitT), float64(admits)), "ns")
	rep.set("partition.release_ns", ratio(float64(releaseT), float64(releases)), "ns")
	return nil
}

// ladderServe times the admission request path in-process on each set
// as a five-scheme request, and checks every response against a direct
// EvaluateAll and mc.TaskSetHash.
func ladderServe(e *env, corpus []*mc.TaskSet, m, k int, root int, evalAll float64, rep *report) error {
	tr := e.tr
	srv := serve.NewServer(serve.Config{CacheSize: -1})
	defer srv.Shutdown(context.Background())
	names := schemeNames()
	direct := partition.New(m, k)
	bodies := make([][]byte, len(corpus))
	for i, ts := range corpus {
		b, err := json.Marshal(&serve.Request{TaskSet: ts, M: m, K: k, Schemes: names})
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	var want []partition.Eval
	var out bytes.Buffer
	for i, body := range bodies {
		req := int64(i)
		id := tr.begin("mc.decode", root, req)
		var r serve.Request
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&r)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("decoding request %d: %w", i, err)
		}
		id = tr.begin("mc.validate_hash", root, req)
		err = r.TaskSet.Validate()
		hash := mc.TaskSetHash(r.TaskSet)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}

		hr := httptest.NewRequest(http.MethodPost, "/v1/admit", bytes.NewReader(body))
		w := httptest.NewRecorder()
		id = tr.begin("serve.ServeHTTP", root, req)
		srv.ServeHTTP(w, hr)
		tr.end(id)
		var resp serve.Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			return fmt.Errorf("decoding response %d: %w", i, err)
		}
		want = direct.EvaluateAll(corpus[i], partition.Schemes, nil, want[:0])
		if !checkResponse(rep, fmt.Sprintf("in-process request %d", i), w.Code, &resp, mc.TaskSetHash(corpus[i]), want) {
			rep.mismatch("in-process request %d: status %d, response %+v", i, w.Code, resp)
		}
		if hash != mc.TaskSetHash(corpus[i]) {
			rep.mismatch("in-process request %d: decoded set hashes to %016x, sent %016x", i, hash, mc.TaskSetHash(corpus[i]))
		}

		out.Reset()
		id = tr.begin("serve.encode", root, req)
		enc := json.NewEncoder(&out)
		enc.SetIndent("", "  ")
		err = enc.Encode(&resp)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	handler := tr.meanMicros(root, "serve.ServeHTTP")
	rep.set("mc.decode_us", tr.meanMicros(root, "mc.decode"), "us")
	rep.set("mc.validate_hash_us", tr.meanMicros(root, "mc.validate_hash"), "us")
	rep.set("serve.encode_us", tr.meanMicros(root, "serve.encode"), "us")
	rep.set("serve.handler_us", handler, "us")
	rep.set("serve.overhead_ratio", ratio(handler, evalAll), "ratio")

	// Allocations per request, requests and recorders built beforehand.
	reqs := make([]*http.Request, len(bodies))
	recs := make([]*httptest.ResponseRecorder, len(bodies))
	for i, body := range bodies {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/admit", bytes.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reqs {
		srv.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	rep.set("serve.allocs_per_request", ratio(float64(after.Mallocs-before.Mallocs), float64(len(reqs))), "count")
	return nil
}

// checkResponse compares one admission response with the direct
// evaluation of the set it carried, recording mismatches. It reports
// whether the response was a complete 200 verdict; anything else is a
// failed operation, not a wrong answer.
func checkResponse(rep *report, what string, status int, resp *serve.Response, hash uint64, want []partition.Eval) bool {
	if status != http.StatusOK || resp.Degraded || resp.Partial || resp.Error != "" {
		return false
	}
	if got := fmt.Sprintf("%016x", hash); resp.TaskSetHash != got {
		rep.mismatch("%s: task_set_hash %s, want %s", what, resp.TaskSetHash, got)
	}
	if len(resp.Verdicts) != len(want) {
		rep.mismatch("%s: %d verdicts, want %d", what, len(resp.Verdicts), len(want))
		return true
	}
	admitted := false
	for i, v := range resp.Verdicts {
		w := want[i]
		admitted = admitted || w.Feasible
		if v.Scheme != partition.Schemes[i].String() || v.Admitted != w.Feasible ||
			(w.Feasible && !sameFloats(v.Usys, w.Usys, v.Uavg, w.Uavg, v.Imbalance, w.Imbalance)) {
			rep.mismatch("%s: verdict %+v, direct EvaluateAll %+v", what, v, w)
		}
	}
	if resp.Admitted != admitted {
		rep.mismatch("%s: admitted=%v, direct EvaluateAll says %v", what, resp.Admitted, admitted)
	}
	return true
}
