// Command mcserveload is the wrk-style load harness for mcserved: it
// offers taskgen-generated admission requests at one or more fixed
// rates through the retrying client and reports latency percentiles
// plus shed and degraded rates as JSON (the BENCH_PR8.json format).
// Latency is timed from each request's due time on the offer clock,
// so time a request spends queued behind a stalled sender counts.
//
// Usage:
//
//	mcserveload -url http://localhost:8377 -rps 200,2000 -duration 5s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"catpa/internal/serve"
	"catpa/internal/serve/client"
	"catpa/internal/taskgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcserveload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url      = fs.String("url", "http://localhost:8377", "daemon base URL")
		rates    = fs.String("rps", "200", "comma-separated offered loads (requests/second)")
		duration = fs.Duration("duration", 5*time.Second, "run length per load level")
		conns    = fs.Int("conns", 16, "concurrent senders")
		budget   = fs.Duration("budget", time.Second, "per-request deadline budget (retries included)")
		sets     = fs.Int("sets", 16, "distinct task sets in the corpus")
		m        = fs.Int("m", 8, "cores per admission question")
		nsu      = fs.Float64("nsu", 0.6, "normalized system utilization of generated sets")
		n        = fs.Int("n", 48, "tasks per generated set")
		schemes  = fs.String("schemes", "", "comma-separated schemes per request (empty = server default)")
		fullFrac = fs.Float64("require-full-frac", 0, "fraction of the corpus marked require_full (refuses degraded verdicts)")
		seed     = fs.Int64("seed", 1, "corpus generator seed")
		desc     = fs.String("description", "", "description embedded in the report")
		pr       = fs.Int("pr", 0, "PR number embedded in the report (BENCH_PR<n>.json convention)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := taskgen.DefaultConfig()
	cfg.M, cfg.K, cfg.NSU = *m, 2, *nsu
	cfg.N = taskgen.IntRange{Lo: *n, Hi: *n}
	var schemeList []string
	if *schemes != "" {
		schemeList = strings.Split(*schemes, ",")
	}
	corpus := make([]*serve.Request, *sets)
	for i := range corpus {
		corpus[i] = &serve.Request{
			TaskSet:     taskgen.GenerateIndexed(&cfg, *seed, i),
			M:           *m,
			Schemes:     schemeList,
			RequireFull: float64(i) < *fullFrac*float64(*sets),
			Tag:         fmt.Sprintf("load-%d", i),
		}
	}

	c, err := client.New(client.Config{BaseURL: *url, Seed: *seed})
	if err != nil {
		fmt.Fprintf(stderr, "mcserveload: %v\n", err)
		return 2
	}

	report := struct {
		PR          int                  `json:"pr,omitempty"`
		Description string               `json:"description,omitempty"`
		URL         string               `json:"url"`
		Corpus      map[string]any       `json:"corpus"`
		Levels      []*client.LoadReport `json:"levels"`
	}{
		PR:          *pr,
		Description: *desc,
		URL:         *url,
		Corpus:      map[string]any{"sets": *sets, "m": *m, "nsu": *nsu, "n": *n, "seed": *seed, "require_full_frac": *fullFrac},
	}
	for _, field := range strings.Split(*rates, ",") {
		rps, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil || rps <= 0 {
			fmt.Fprintf(stderr, "mcserveload: bad -rps entry %q\n", field)
			return 2
		}
		fmt.Fprintf(stderr, "mcserveload: offering %.0f req/s for %v...\n", rps, *duration)
		rep, err := client.RunLoad(context.Background(), client.LoadConfig{
			Client:        c,
			Corpus:        corpus,
			RPS:           rps,
			Duration:      *duration,
			Conns:         *conns,
			RequestBudget: *budget,
		})
		if err != nil {
			fmt.Fprintf(stderr, "mcserveload: load run at %.0f rps: %v\n", rps, err)
			return 1
		}
		report.Levels = append(report.Levels, rep)
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&report); err != nil {
		fmt.Fprintf(stderr, "mcserveload: %v\n", err)
		return 1
	}
	return 0
}
