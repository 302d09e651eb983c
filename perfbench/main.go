// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload for a fixed time, checks that the
// program's outputs are correct, and prints its metrics; the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (endToEndMetrics);
// with -trace 1 the same workload runs again with spans recorded from
// this package around calls into each module's public functions, and
// the metrics are the per-layer ones (layerMetrics). Lines before the
// JSON object are the human-readable report: the run record, every
// metric under its workload-specific name, and layer figures that
// exist on one workload only.
//
// Workloads (see RATIONALE.md for why each exists):
//
//	fig1-sweep      the paper's Figure 1 population through runner.Run
//	online-churn    OnlineFigure's arrival/departure sessions through runner.Run
//	admit-loopback  an mcserved process answering /v1/admit on loopback
//
// Run it through run.sh from the repository root, which builds this
// command and the daemon first:
//
//	bash perfbench/run.sh --workload fig1-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// endToEndMetrics and layerMetrics list, with their units, the metric
// names every workload reports in untraced and traced mode; they must
// match BENCHMARK.json.
var endToEndMetrics = map[string]string{
	"setup_s":          "s",
	"peak_rss_mb":      "MB",
	"throughput_per_s": "1/s",
	"latency_p50_ms":   "ms",
	"latency_p75_ms":   "ms",
}

var layerMetrics = map[string]string{
	"taskgen.generate_us":          "us",
	"taskgen.stream_us":            "us",
	"partition.evaluate_us.wfd":    "us",
	"partition.evaluate_us.ffd":    "us",
	"partition.evaluate_us.bfd":    "us",
	"partition.evaluate_us.hybrid": "us",
	"partition.evaluate_us.ca-tpa": "us",
	"partition.evaluate_all_us":    "us",
	"partition.admit_ns":           "ns",
	"partition.release_ns":         "ns",
	"edfvd.probes_per_task":        "count",
	"edfvd.probe_accept_ratio":     "ratio",
	"edfvd.remove_per_release":     "ratio",
	"mc.decode_us":                 "us",
	"mc.validate_hash_us":          "us",
	"serve.encode_us":              "us",
	"serve.handler_us":             "us",
	"serve.overhead_ratio":         "ratio",
	"serve.allocs_per_request":     "count",
	"trace.unattributed_share":     "ratio",
	"trace.overhead_share":         "ratio",
	"fail_frac":                    "ratio",
}

// The admit-loopback configuration. BENCHMARK.json's command repeats
// these values so they are visible there; the defaults equal them, so
// a run without the flags measures the same workload.
const (
	defaultDaemonFlags = "-queue=256 -timeout=2s"
	defaultOpenRPS     = 300
	// defaultRepeatShare is an assumed, not measured, share of requests
	// that re-send a recent set (see RATIONALE.md).
	defaultRepeatShare = 0.2
)

// env is one invocation's configuration.
type env struct {
	workload string
	seed     int64
	seconds  float64
	tr       *tracer // nil when untraced
	nproc    int
	root     string // repository root (the checkout)
	tmp      string // per-run scratch directory inside the checkout

	mcserved    string   // daemon binary
	daemonFlags []string // fixed daemon flags
	openRPS     float64  // open-loop offered rate
	repeatShare float64  // share of admission requests re-sending a recent set
}

func (e *env) traced() bool { return e.tr != nil }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type noteLine struct {
	name  string
	value float64
	unit  string
}

// report collects one run's outcome: the JSON metrics of the run's
// mode, human-readable notes, operation counts and correctness
// mismatches.
type report struct {
	metrics    map[string]metric
	notes      []noteLine
	attempted  int64
	failed     int64
	mismatches []string
}

// set records a JSON metric (the unit must match its declaration) and
// echoes it as a note.
func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.note(name, v, unit)
}

// note records a human-readable figure that is not part of the JSON.
func (r *report) note(name string, v float64, unit string) {
	r.notes = append(r.notes, noteLine{name, v, unit})
}

func (r *report) mismatch(format string, args ...any) {
	const keep = 20
	if len(r.mismatches) < keep {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	} else if len(r.mismatches) == keep {
		r.mismatches = append(r.mismatches, "further mismatches not shown")
	}
}

var workloads = map[string]func(*env, *report) error{
	"fig1-sweep":     runFig1,
	"online-churn":   runOnline,
	"admit-loopback": runAdmit,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload    = fs.String("workload", "", "workload name")
		seed        = fs.Int64("seed", 1, "input seed")
		seconds     = fs.Float64("seconds", 10, "measurement time")
		trace       = fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
		root        = fs.String("root", ".", "repository root")
		mcserved    = fs.String("mcserved", "", "mcserved binary (admit-loopback)")
		daemonFlags = fs.String("daemon-flags", defaultDaemonFlags, "space-separated mcserved flags")
		openRPS     = fs.Float64("open-rps", defaultOpenRPS, "open-loop offered rate (admit-loopback)")
		repeat      = fs.Float64("repeat-share", defaultRepeatShare, "share of admission requests re-sending a recent set")
		commit      = fs.String("commit", "unknown", "commit under test, for the run record")
		probe       = fs.Bool("setup-probe", false, "internal: run one sweep set-up and exit (see sweepSetup)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || *repeat < 0 || *repeat >= 1 || *openRPS <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload %s, -seconds > 0, -trace 0|1, -open-rps > 0, 0 <= -repeat-share < 1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	e := &env{
		workload:    *workload,
		seed:        *seed,
		seconds:     *seconds,
		nproc:       runtime.NumCPU(),
		root:        *root,
		mcserved:    *mcserved,
		daemonFlags: strings.Fields(*daemonFlags),
		openRPS:     *openRPS,
		repeatShare: *repeat,
	}
	if *trace == 1 {
		e.tr = newTracer()
	}
	if _, err := os.Stat(filepath.Join(e.root, "internal", "partition")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: -root must be the repository root:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(filepath.Join(e.root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	e.tmp = tmp
	if *probe {
		if err := setupProbe(e); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
			return 1
		}
		return 0
	}

	printRecord(e, *commit)
	rep := &report{metrics: make(map[string]metric)}
	steal0, total0, statErr := cpuTicks()
	if err := wl(e, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	// CPU time the hypervisor took from this machine during the run: a
	// validity check on the figures, which a noisy host moves.
	if steal1, total1, err := cpuTicks(); err == nil && statErr == nil {
		rep.note("host.steal_share", ratio(float64(steal1-steal0), float64(total1-total0)), "ratio")
	}
	want := endToEndMetrics
	if e.traced() {
		want = layerMetrics
		path := filepath.Join(e.root, ".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", e.workload, e.seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(e.tr.spans), path)
	}
	if err := checkMetrics(rep.metrics, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", e.workload, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Printf("%-44s %14.6g %s\n", n.name, n.value, n.unit)
	}
	for _, m := range rep.mismatches {
		fmt.Println("MISMATCH:", m)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.mismatches) == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if len(rep.mismatches) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// checkMetrics verifies that a workload reported exactly the declared
// metrics with their declared units.
func checkMetrics(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s has unit %s, declared %s", name, m.Unit, unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics reported, %d declared", len(got), len(want))
	}
	return nil
}
