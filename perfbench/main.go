// Command perfbench is the repository benchmark: it runs one named workload
// against the public persona API, checks the workload's output, and prints a
// run record followed, as the last line, by one JSON object with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
//
// Build and run it through run.sh from the repository root; see README.md
// for the workloads, the metrics and what each one should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	measure time.Duration // how long the measured phase runs
	trace   bool
	outDir  string // where the traced run writes its spans
	sizes   sizes
	// expect, when set, is the digest every sort and wgs output must have;
	// by default each run checks its reps against its first rep.
	expect string
}

// workload runs one named workload and fills the report.
type workload func(ctx context.Context, cfg runConfig, rep *report) error

var workloads = map[string]workload{
	"align": runAlign,
	"sort":  runSort,
	"wgs":   runWGS,
	"serve": runServe,
}

func main() {
	name := flag.String("workload", "", "workload to run: align, sort, wgs or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload align|sort|wgs|serve --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		outDir:  *out,
		sizes:   defaultSizes,
	}
	rep := newReport(*name, cfg)
	printHost(rep, cfg)
	err := run(context.Background(), cfg, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := rep.result()
	rep.printRecord()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report collects a run's counts, metrics and human-readable record lines.
type report struct {
	workload  string
	trace     bool
	attempted int
	failed    int
	checks    []string // what each failed operation was
	e2e       map[string]metric
	layer     map[string]metric
	notes     []string
}

func newReport(workload string, cfg runConfig) *report {
	return &report{
		workload: workload,
		trace:    cfg.trace,
		e2e:      make(map[string]metric),
		layer:    make(map[string]metric),
	}
}

// note adds a line to the printed run record.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and whether its output check passed.
func (r *report) op(ok bool, what string) {
	r.attempted++
	if !ok {
		r.failed++
		r.checks = append(r.checks, what)
	}
}

func (r *report) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

func (r *report) result() result {
	m := r.e2e
	if r.trace {
		m = r.layer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
	if r.attempted == 0 { // nothing ran: a failure, reported as one
		res = result{Attempted: 1, Failed: 1, Metrics: m}
	}
	return res
}

func (r *report) printRecord() {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, c := range r.checks {
		fmt.Println("FAILED CHECK:", c)
	}
	fmt.Printf("failed_frac: %d of %d operations failed\n", r.failed, r.attempted)
	printMetrics := func(title string, m map[string]metric) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Println(title)
		for _, k := range names {
			fmt.Printf("  %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
		}
	}
	if r.trace {
		printMetrics("per-layer metrics (traced run):", r.layer)
	} else {
		printMetrics("end-to-end metrics:", r.e2e)
	}
}
