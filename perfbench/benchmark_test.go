package main

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metric lists this command
// reports in step with the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to this directory:", err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", kind, len(got), len(want))
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json metric %s (%s) is not reported with that unit", kind, m.Name, m.Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench implements %d", len(b.Workloads), len(workloads))
	}
}

// TestCommandFlagsAreDefaults keeps the admit-loopback values written
// in BENCHMARK.json's command equal to the flag defaults, so there is
// one configuration whether or not the flags are given.
func TestCommandFlagsAreDefaults(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to this directory:", err)
	}
	var b struct {
		Command []string `json:"command"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"--daemon-flags": defaultDaemonFlags,
		"--open-rps":     strconv.FormatFloat(defaultOpenRPS, 'g', -1, 64),
		"--repeat-share": strconv.FormatFloat(defaultRepeatShare, 'g', -1, 64),
	}
	got := map[string]string{}
	for i := 0; i+1 < len(b.Command); i++ {
		if _, ok := want[b.Command[i]]; ok {
			got[b.Command[i]] = b.Command[i+1]
		}
	}
	for flag, w := range want {
		if g, ok := got[flag]; ok && g != w {
			t.Errorf("BENCHMARK.json command has %s %q, default is %q", flag, g, w)
		}
	}
}
