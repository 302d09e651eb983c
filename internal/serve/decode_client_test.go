package serve_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"catpa/internal/mc"
	"catpa/internal/partition"
	"catpa/internal/serve"
	"catpa/internal/serve/client"
	"catpa/internal/taskgen"
)

// TestFastDecodeCoversClientBodies: every body the project's own
// encoders produce — json.Marshal of a Request with each field set, and
// the retrying client's wire form — takes the fast decode path. A field
// added to Request or mc.Task without teaching the decoder would send
// every such body down the encoding/json fallback; this test says so.
func TestFastDecodeCoversClientBodies(t *testing.T) {
	cfg := taskgen.DefaultConfig()
	cfg.M, cfg.K, cfg.NSU = 8, 4, 0.6
	cfg.N = taskgen.IntRange{Lo: 96, Hi: 96}
	named := mc.NewTaskSet(
		mc.MustTask(1, "flight_ctl", 20, 3, 7),
		mc.MustTask(2, "telemetry", 100, 30),
		mc.MustTask(3, "nav ünïcode", 5e22, 1.5e-7, 2.25e-7, 3e21),
	)
	names := make([]string, len(partition.Schemes))
	for i, s := range partition.Schemes {
		names[i] = s.String()
	}
	reqs := []*serve.Request{
		{TaskSet: taskgen.GenerateIndexed(&cfg, 1, 0), M: 8, K: 4, Schemes: names},
		{TaskSet: named, M: 2, K: 3, Schemes: []string{"CA-TPA", "WFD"}, Backend: "amcrtb",
			TimeoutMS: 250, RequireFull: true, Tag: "every-field"},
		{TaskSet: named, M: 1},
	}

	var mu sync.Mutex
	var wire [][]byte
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("read body: %v", err)
		}
		mu.Lock()
		wire = append(wire, b)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&serve.Response{Verdict: serve.VerdictAdmitted, Admitted: true})
	}))
	defer hs.Close()
	c, err := client.New(client.Config{BaseURL: hs.URL, HTTPClient: hs.Client()})
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !serve.DecodeFast(b, new(serve.Request)) {
			t.Errorf("json.Marshal body %d falls back to encoding/json", i)
		}
		if _, _, err := c.Admit(context.Background(), req); err != nil {
			t.Fatalf("client.Admit %d: %v", i, err)
		}
	}
	if len(wire) != len(reqs) {
		t.Fatalf("server saw %d bodies, want %d", len(wire), len(reqs))
	}
	for i, b := range wire {
		if !serve.DecodeFast(b, new(serve.Request)) {
			t.Errorf("client body %d falls back to encoding/json", i)
		}
	}
}
