// Pisobench regenerates every table and figure of the paper's
// evaluation (§4) plus the ablation studies, printing paper-style text
// tables (or Markdown with -markdown). Experiments come from the
// registry in internal/experiment and run across a bounded worker pool
// (-parallel); output order is always the registry order, so parallel
// runs print byte-identical tables. With -short it skips the ablations;
// -json writes a machine-readable benchmark report, and -artifacts DIR
// writes the per-experiment observer artifacts into DIR: metrics.jsonl,
// profile.jsonl, latency.jsonl and controller.jsonl (deterministic at
// any -parallel level and on either event queue).
//
// With -perf it instead measures the event core's throughput per
// registry scenario (events/sec, ns/event, allocs/event, rep-to-rep CV)
// and can gate against a committed baseline; -perf-trajectory appends
// the run to the append-only perf history (BENCH_trajectory.jsonl) and
// -perf-history renders that history as a trend report. -eventq flips
// every engine the run builds onto the binary-heap fallback for
// differential testing.
//
// With -simobs it turns the measurement discipline on the simulator
// itself: every registry scenario runs under the self-observability
// collector (internal/simobs) and prints its event census, calendar-
// queue internals, sampled host-time attribution, and the parallelism-
// feasibility report; -artifacts DIR writes the machine artifacts
// simobs.jsonl and hostprofile.pb.gz (which opens with `go tool pprof`).
//
// Usage:
//
//	pisobench [-short] [-markdown] [-only ID] [-parallel N] [-json PATH] [-artifacts DIR] [-eventq calendar|heap]
//	pisobench -perf [-perf-scenarios IDS] [-perf-reps N] [-perf-baseline PATH] [-perf-gate FRAC] [-perf-trajectory PATH] [-json PATH]
//	pisobench -perf-history BENCH_trajectory.jsonl
//	pisobench -simobs [-simobs-scenarios IDS] [-artifacts DIR]
//	pisobench -diff OLD.json NEW.json   (bench, perf, or trajectory files)
//	pisobench -soak [-soak-runs N] [-soak-seed S] [-soak-case K] [-soak-faults SPEC]
//	pisobench -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"perfiso/internal/experiment"
	"perfiso/internal/fault"
	"perfiso/internal/sim"
	"perfiso/internal/simobs"
	"perfiso/internal/soak"
	"perfiso/internal/stats"
)

// config holds the parsed flag values so the dispatch logic is testable
// without re-executing the binary.
type config struct {
	short       bool
	markdown    bool
	compare     bool
	list        bool
	only        string
	parallel    int
	jsonPath    string
	artifacts   string
	eventq      string
	diff        bool
	diffArgs    []string
	perf        bool
	perfReps    int
	perfOnly    string
	perfBase    string
	perfGate    float64
	perfTraj    string
	perfHistory string
	simobs      bool
	simobsOnly  string
	soak        bool
	soakRuns    int
	soakSeed    uint64
	soakCase    int
	soakFaults  string
}

func main() {
	var cfg config
	flag.BoolVar(&cfg.short, "short", false, "skip the ablation studies")
	flag.StringVar(&cfg.only, "only", "", "run a single experiment id or alias (see -list)")
	flag.BoolVar(&cfg.markdown, "markdown", false, "emit GitHub-flavored Markdown tables")
	flag.BoolVar(&cfg.compare, "compare", false, "print only the paper-vs-measured comparison")
	flag.BoolVar(&cfg.list, "list", false, "list registered experiment ids and exit")
	flag.IntVar(&cfg.parallel, "parallel", runtime.GOMAXPROCS(0), "experiments to run concurrently")
	flag.StringVar(&cfg.jsonPath, "json", "", "write a machine-readable benchmark report to this path")
	flag.StringVar(&cfg.artifacts, "artifacts", "", "write the machine artifacts into this directory, created if missing: metrics, profile, latency and controller JSONL (with -simobs: simobs.jsonl and hostprofile.pb.gz)")
	flag.BoolVar(&cfg.diff, "diff", false, "compare two pisobench JSON reports (bench or perf): pisobench -diff old.json new.json")
	flag.StringVar(&cfg.eventq, "eventq", "", "event queue implementation: calendar (default) or heap")
	flag.BoolVar(&cfg.perf, "perf", false, "run the perf baseline instead of printing tables (BENCH_perf.json via -json)")
	flag.IntVar(&cfg.perfReps, "perf-reps", 3, "perf: repetitions per scenario; fastest rep is reported")
	flag.StringVar(&cfg.perfOnly, "perf-scenarios", "", "perf: comma-separated scenario ids (default: full registry)")
	flag.StringVar(&cfg.perfBase, "perf-baseline", "", "perf: prior BENCH_perf.json to annotate speedups against")
	flag.Float64Var(&cfg.perfGate, "perf-gate", 0, "perf: fail if any scenario's ns/event regresses past baseline by this fraction (0.15 = 15%)")
	flag.StringVar(&cfg.perfTraj, "perf-trajectory", "", "perf: append this run to the append-only trajectory JSONL at this path")
	flag.StringVar(&cfg.perfHistory, "perf-history", "", "render the perf trajectory at this path as a trend report and exit")
	flag.BoolVar(&cfg.simobs, "simobs", false, "run registry scenarios under the simulator self-observability collector and print the reports")
	flag.StringVar(&cfg.simobsOnly, "simobs-scenarios", "", "simobs: comma-separated scenario ids (default: full registry)")
	flag.BoolVar(&cfg.soak, "soak", false, "run the chaos-soak harness instead of the evaluation suite")
	flag.IntVar(&cfg.soakRuns, "soak-runs", 16, "soak: number of generated cases to run")
	flag.Uint64Var(&cfg.soakSeed, "soak-seed", 1, "soak: sweep seed; every case derives from it deterministically")
	flag.IntVar(&cfg.soakCase, "soak-case", -1, "soak: replay a single case index instead of sweeping")
	flag.StringVar(&cfg.soakFaults, "soak-faults", "", "soak: override the replayed case's fault schedule (repro spec)")
	flag.Parse()
	cfg.diffArgs = flag.Args()
	os.Exit(run(cfg, os.Stdout, os.Stderr))
}

// runSoak dispatches the -soak mode: a seeded sweep, or — with
// -soak-case — a single-case replay, optionally under the minimized
// fault schedule a previous sweep printed.
func runSoak(cfg config, stdout, stderr io.Writer) int {
	if cfg.soakCase >= 0 {
		c := soak.NewCase(cfg.soakSeed, cfg.soakCase)
		if cfg.soakFaults != "" {
			plan, err := fault.ParsePlan(cfg.soakFaults)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			c = c.WithFaults(plan)
		}
		if soak.RunOne(stdout, c) {
			return 1
		}
		return 0
	}
	if cfg.soakFaults != "" {
		fmt.Fprintln(stderr, "-soak-faults needs -soak-case to name the case it replays")
		return 2
	}
	if failures := soak.Sweep(stdout, cfg.soakSeed, cfg.soakRuns); failures > 0 {
		fmt.Fprintf(stderr, "soak: %d of %d cases failed\n", failures, cfg.soakRuns)
		return 1
	}
	fmt.Fprintf(stderr, "soak: %d cases clean (seed %d)\n", cfg.soakRuns, cfg.soakSeed)
	return 0
}

// runPerf dispatches the -perf mode: measure the event core's
// throughput on the selected registry scenarios, print the table,
// optionally write BENCH_perf.json (-json) and enforce the regression
// gate against a committed baseline (-perf-baseline, -perf-gate).
func runPerf(cfg config, stdout, stderr io.Writer) int {
	var ids []string
	if cfg.perfOnly != "" {
		ids = strings.Split(cfg.perfOnly, ",")
	}
	rep, err := experiment.RunPerf(ids, cfg.perfReps)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rep.EventQueue = sim.DefaultQueue().String()

	var failures []string
	if cfg.perfBase != "" {
		data, err := os.ReadFile(cfg.perfBase)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		var base experiment.PerfReport
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(stderr, "parsing %s: %v\n", cfg.perfBase, err)
			return 2
		}
		rep.Baseline = cfg.perfBase
		failures = rep.Compare(base, cfg.perfGate)
	}

	fmt.Fprint(stdout, rep)
	if cfg.jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := os.WriteFile(cfg.jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if cfg.perfTraj != "" {
		pts := experiment.TrajectoryPoints(rep, gitCommit(), time.Now().Format("2006-01-02"))
		if err := experiment.AppendTrajectory(cfg.perfTraj, pts); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	for _, f := range failures {
		fmt.Fprintf(stderr, "PERF REGRESSION %s\n", f)
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}

// gitCommit stamps trajectory points with the short hash of HEAD, or
// "unknown" when the binary runs outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runPerfHistory dispatches -perf-history: read the append-only
// trajectory JSONL and render the per-scenario trend report.
func runPerfHistory(cfg config, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(cfg.perfHistory)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pts, err := experiment.ReadTrajectory(data)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprint(stdout, experiment.HistoryReport(pts))
	return 0
}

// runSimObs dispatches -simobs: run the selected registry scenarios
// sequentially under the self-observability collector, print each
// scenario's telemetry report plus the cross-scenario feasibility
// table, and write the machine artifacts when asked.
func runSimObs(cfg config, stdout, stderr io.Writer) int {
	var ids []string
	if cfg.simobsOnly != "" {
		ids = strings.Split(cfg.simobsOnly, ",")
	}
	results, err := experiment.RunSimObs(ids, simobs.Config{})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	failed := 0
	var reports []*simobs.Report
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(stderr, "FAILED %s: %v\n", r.Spec.ID, r.Err)
			continue
		}
		fmt.Fprintln(stdout, r.Report.String())
		reports = append(reports, r.Report)
	}
	fmt.Fprintln(stdout, experiment.FeasibilityTable(results))
	if cfg.artifacts != "" {
		err := experiment.WriteDir(cfg.artifacts, []experiment.ArtifactFile{
			{Name: "simobs.jsonl", Write: func(w io.Writer) error {
				for _, rep := range reports {
					if err := rep.WriteJSONL(w); err != nil {
						return err
					}
				}
				return nil
			}},
			{Name: "hostprofile.pb.gz", Write: func(w io.Writer) error { return simobs.WritePprofAll(w, reports) }},
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runDiff dispatches the -diff mode: compare two pisobench JSON
// reports (evaluation or perf — the kind is sniffed from the files)
// and print what moved. Report-only: any readable pair exits 0.
func runDiff(cfg config, stdout, stderr io.Writer) int {
	if len(cfg.diffArgs) != 2 {
		fmt.Fprintln(stderr, "usage: pisobench -diff OLD.json NEW.json")
		return 2
	}
	oldData, err := os.ReadFile(cfg.diffArgs[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	newData, err := os.ReadFile(cfg.diffArgs[1])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	out, err := experiment.Diff(oldData, newData, cfg.diffArgs[0], cfg.diffArgs[1])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintln(stdout, out)
	return 0
}

// run executes one pisobench invocation, writing tables to stdout and
// diagnostics to stderr, and returns the process exit code.
func run(cfg config, stdout, stderr io.Writer) int {
	show := func(t *stats.Table) {
		if cfg.markdown {
			fmt.Fprintln(stdout, t.Markdown())
		} else {
			fmt.Fprintln(stdout, t)
		}
	}

	if kind, err := sim.ParseQueueKind(cfg.eventq); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	} else {
		sim.SetDefaultQueue(kind)
	}

	if cfg.soak {
		return runSoak(cfg, stdout, stderr)
	}
	if cfg.perfHistory != "" {
		return runPerfHistory(cfg, stdout, stderr)
	}
	if cfg.perf {
		return runPerf(cfg, stdout, stderr)
	}
	if cfg.simobs {
		return runSimObs(cfg, stdout, stderr)
	}
	if cfg.diff {
		return runDiff(cfg, stdout, stderr)
	}
	if cfg.compare {
		show(experiment.RunComparison().Table())
		return 0
	}
	if cfg.list {
		for _, s := range experiment.Registry() {
			alias := ""
			if len(s.Aliases) > 0 {
				alias = " (alias " + strings.Join(s.Aliases, ", ") + ")"
			}
			fmt.Fprintf(stdout, "%-16s %s%s\n", s.ID, s.Title, alias)
		}
		return 0
	}

	specs := experiment.Filter(experiment.Registry(), cfg.only, cfg.short)
	if len(specs) == 0 {
		fmt.Fprintf(stderr, "unknown experiment %q; known ids: %s\n",
			cfg.only, strings.Join(experiment.IDs(), ", "))
		return 2
	}

	if !cfg.markdown {
		printHeader(stdout)
	}

	start := time.Now()
	results := experiment.RunAll(specs, cfg.parallel)
	wall := time.Since(start)

	failed := 0
	for _, r := range results {
		if r.Err != nil {
			// The suite keeps going past a dead experiment; report it
			// loudly with a focused rerun and fail the invocation at the
			// end, after every survivor has printed.
			failed++
			fmt.Fprintf(stderr, "FAILED %s: %v\n  rerun just this one: pisobench -only %s\n",
				r.Spec.ID, r.Err, r.Spec.ID)
			continue
		}
		for _, sec := range r.Output.Sections {
			// A multi-section spec matched via an alias prints only the
			// section that alias names (-only fig3 skips fig2's table).
			// Single-section specs print their one table under any alias.
			if cfg.only != "" && len(r.Output.Sections) > 1 &&
				cfg.only != r.Spec.ID && cfg.only != sec.ID {
				continue
			}
			show(sec.Table)
			if sec.Bars != nil && !cfg.markdown {
				fmt.Fprintln(stdout, stats.Bars("", sec.Bars.Labels, sec.Bars.Values, 40))
			}
		}
	}
	if cfg.short && cfg.only == "" {
		fmt.Fprintln(stderr, "(-short: skipping ablations)")
	}

	bench := experiment.BenchReport(results, cfg.parallel, cfg.short, wall)
	if cfg.jsonPath != "" {
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := os.WriteFile(cfg.jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if cfg.artifacts != "" {
		if err := experiment.WriteArtifacts(cfg.artifacts, results); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "%d experiments, %d events in %.2fs wall (parallel=%d, %.2fM events/s)\n",
		len(results), bench.Events, wall.Seconds(), cfg.parallel,
		float64(bench.Events)/wall.Seconds()/1e6)
	if failed > 0 {
		fmt.Fprintf(stderr, "%d of %d experiments failed\n", failed, len(results))
		return 1
	}
	return 0
}

func printHeader(w io.Writer) {
	fmt.Fprintln(w, "perfiso evaluation — reproduction of Verghese, Gupta & Rosenblum,")
	fmt.Fprintln(w, "\"Performance Isolation\", ASPLOS 1998. Table 1 machines:")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "  Pmake8:           8 CPUs, 44 MB, 8 fast disks; 8 SPUs, pmake jobs")
	fmt.Fprintln(w, "  CPU isolation:    8 CPUs, 64 MB; Ocean vs 3x Flashlite + 3x VCS")
	fmt.Fprintln(w, "  Memory isolation: 4 CPUs, 16 MB; pmake jobs under memory pressure")
	fmt.Fprintln(w, "  Disk isolation:   2 CPUs, 44 MB, one shared HP 97560 (seek x1/2)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Table 2 schemes: SMP (unconstrained sharing), Quo (fixed quotas),")
	fmt.Fprintln(w, "PIso (performance isolation). Normalized numbers use SMP = 100.")
	fmt.Fprintln(w)
}
