package experiment

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"perfiso/internal/stats"
)

// BarChart is the data behind one terminal bar rendering (the stand-in
// for the paper's bar figures). The harness carries it alongside the
// table so callers decide how — and whether — to render it.
type BarChart struct {
	Labels []string
	Values []float64
}

// Section is one printable artifact of an experiment: a table plus,
// optionally, the bar chart pisobench draws beneath it. Experiments that
// reproduce several figures from one simulation batch (Pmake8 produces
// Figures 2 and 3) emit one section per figure.
type Section struct {
	ID    string
	Table *stats.Table
	Bars  *BarChart
}

// Output is everything one experiment run produced: its printable
// sections plus the runner's Meter (event count and the per-kernel
// summaries the bench report and the artifact files are built from).
type Output struct {
	Sections []Section
	Meter
}

// Rows flattens every section table into machine-readable headline rows
// for regression tracking.
func (o Output) Rows() []stats.Row {
	var rows []stats.Row
	for _, s := range o.Sections {
		rows = append(rows, s.Table.NumericRows()...)
	}
	return rows
}

// Spec is one registered experiment: a stable identifier, the section
// ids it answers to, and a runner. Each Run call builds its own
// kernels/engines from scratch, so specs are safe to execute
// concurrently with each other — determinism is per-experiment.
type Spec struct {
	// ID is the primary identifier (pisobench -only).
	ID string
	// Aliases are additional -only names, one per section for
	// multi-section specs (fig2/fig3 for pmake8).
	Aliases []string
	// Title is a short human-readable description.
	Title string
	// Ablation marks the studies pisobench -short skips.
	Ablation bool
	// Run executes the experiment and returns its artifacts.
	Run func() Output
}

// Matches reports whether id names this spec (primary id or alias).
func (s Spec) Matches(id string) bool {
	if id == s.ID {
		return true
	}
	for _, a := range s.Aliases {
		if id == a {
			return true
		}
	}
	return false
}

// Registry returns every experiment of the paper's evaluation plus the
// ablations, in the canonical presentation order (the order pisobench
// prints and BENCH_pisobench.json records).
func Registry() []Spec {
	return []Spec{
		{
			ID: "pmake8", Aliases: []string{"fig2", "fig3"},
			Title: "Pmake8 isolation and sharing (Figures 2-3)",
			Run: func() Output {
				p := RunPmake8(Pmake8Options{})
				fig2 := Section{ID: "fig2", Table: p.Fig2Table(), Bars: &BarChart{}}
				for _, r := range p.Fig2Rows() {
					fig2.Bars.Labels = append(fig2.Bars.Labels, r.Scheme.String()+" B", r.Scheme.String()+" U")
					fig2.Bars.Values = append(fig2.Bars.Values, r.Balanced, r.Unbalanced)
				}
				fig3 := Section{ID: "fig3", Table: p.Fig3Table(), Bars: &BarChart{}}
				for _, r := range p.Fig3Rows() {
					fig3.Bars.Labels = append(fig3.Bars.Labels, r.Scheme.String())
					fig3.Bars.Values = append(fig3.Bars.Values, r.Heavy)
				}
				return Output{Sections: []Section{fig2, fig3}, Meter: p.Meter}
			},
		},
		{
			ID: "fig5", Title: "CPU isolation (Figure 5)",
			Run: func() Output {
				r := RunCPUIso(CPUIsoOptions{})
				return Output{Sections: []Section{{ID: "fig5", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "fig7", Title: "Memory isolation (Figure 7)",
			Run: func() Output {
				r := RunMemIso(MemIsoOptions{})
				return Output{Sections: []Section{{ID: "fig7", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "tab3", Title: "Disk isolation, pmake-copy (Table 3)",
			Run: func() Output {
				r := RunTable3(DiskOptions{})
				return Output{Sections: []Section{{ID: "tab3", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "tab4", Title: "Disk head position vs fairness (Table 4)",
			Run: func() Output {
				r := RunTable4(DiskOptions{})
				return Output{Sections: []Section{{ID: "tab4", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "isolation-under-faults", Aliases: []string{"faults"},
			Title: "Isolation under injected faults (extension)", Ablation: true,
			Run: func() Output {
				r := RunFaults(FaultOptions{})
				s := Section{ID: "isolation-under-faults", Table: r.Table(), Bars: &BarChart{}}
				for _, row := range r.Rows() {
					s.Bars.Labels = append(s.Bars.Labels, row.Scheme.String()+" V", row.Scheme.String()+" S")
					s.Bars.Values = append(s.Bars.Values, row.Victim, row.Steady)
				}
				return Output{Sections: []Section{s}, Meter: r.Meter}
			},
		},
		{
			ID: "abl-bwthreshold", Title: "Ablation: BW-difference threshold sweep", Ablation: true,
			Run: func() Output {
				r := RunAblationBWThreshold(nil)
				return Output{Sections: []Section{{ID: "abl-bwthreshold", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "abl-reserve", Title: "Ablation: memory Reserve Threshold sweep", Ablation: true,
			Run: func() Output {
				r := RunAblationReserve(nil)
				return Output{Sections: []Section{{ID: "abl-reserve", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "abl-inodelock", Title: "Ablation: inode-lock granularity", Ablation: true,
			Run: func() Output {
				r := RunAblationInodeLock()
				return Output{Sections: []Section{{ID: "abl-inodelock", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "abl-pageinsert", Title: "Ablation: page-insert-lock granularity", Ablation: true,
			Run: func() Output {
				r := RunAblationPageInsert()
				return Output{Sections: []Section{{ID: "abl-pageinsert", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "lock-leak", Aliases: []string{"abl-lockleak"},
			Title: "Lock-sharing erosion of performance isolation", Ablation: true,
			Run: func() Output {
				r := RunLockLeak()
				return Output{Sections: []Section{{ID: "lock-leak", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "abl-revocation", Title: "Ablation: CPU revocation latency", Ablation: true,
			Run: func() Output {
				r := RunAblationRevocation()
				return Output{Sections: []Section{{ID: "abl-revocation", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "abl-affinity", Title: "Ablation: cache pollution and loan limiting", Ablation: true,
			Run: func() Output {
				r := RunAblationAffinity()
				return Output{Sections: []Section{{ID: "abl-affinity", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "abl-gang", Title: "Ablation: gang scheduling", Ablation: true,
			Run: func() Output {
				r := RunAblationGang()
				return Output{Sections: []Section{{ID: "abl-gang", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "abl-network", Title: "Ablation: network bandwidth isolation", Ablation: true,
			Run: func() Output {
				r := RunAblationNetwork()
				return Output{Sections: []Section{{ID: "abl-network", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "server-latency", Title: "Extension: interactive response-time isolation", Ablation: true,
			Run: func() Output {
				r := RunServerLatency()
				return Output{Sections: []Section{{ID: "server-latency", Table: r.Table()}}, Meter: r.Meter}
			},
		},
		{
			ID: "slo-controller", Aliases: []string{"controller", "adaptive"},
			Title: "Extension: closed-loop SLO entitlement control", Ablation: true,
			Run: func() Output {
				r := RunSLOController()
				return Output{
					Sections: []Section{
						{ID: "slo-controller", Table: r.Table()},
						{ID: "slo-frontier", Table: r.FrontierTable()},
					},
					Meter: r.Meter,
				}
			},
		},
		{
			ID: "open-arrival", Aliases: []string{"tenants"},
			Title: "Extension: multi-tenant open-arrival tail latency", Ablation: true,
			Run: func() Output {
				r := RunOpenArrival()
				return Output{
					Sections: []Section{
						{ID: "open-arrival", Table: r.Table()},
						{ID: "open-arrival-breakdown", Table: r.BreakdownTable()},
					},
					Meter: r.Meter,
				}
			},
		},
	}
}

// Lookup resolves an experiment id or alias against the registry.
func Lookup(id string) (Spec, bool) {
	for _, s := range Registry() {
		if s.Matches(id) {
			return s, true
		}
	}
	return Spec{}, false
}

// IDs returns every primary id in registry order.
func IDs() []string {
	regs := Registry()
	out := make([]string, len(regs))
	for i, s := range regs {
		out[i] = s.ID
	}
	return out
}

// Filter selects the specs a pisobench invocation should run: all of
// them, the non-ablations (short), or the ones matching a single id.
func Filter(specs []Spec, only string, short bool) []Spec {
	var out []Spec
	for _, s := range specs {
		if only != "" {
			if s.Matches(only) {
				out = append(out, s)
			}
			continue
		}
		if short && s.Ablation {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Result pairs a Spec's Output with execution metadata.
type Result struct {
	Spec   Spec
	Output Output
	Wall   time.Duration
	// Err is non-nil when the experiment panicked (an invariant
	// violation, a kernel bug, a broken ablation); Output is then
	// whatever partial state survived — usually empty.
	Err error
}

// runSpec executes one spec, converting a panic — including invariant
// auditor violations, which deliberately panic in fail-fast mode — into
// an error carrying the experiment id and stack, so one broken
// experiment cannot take down a whole parallel suite.
func runSpec(s Spec) (out Output, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment %s panicked: %v\n%s", s.ID, r, debug.Stack())
		}
	}()
	return s.Run(), nil
}

// RunAll executes the specs across a bounded pool of parallel worker
// goroutines and returns the results in spec order regardless of
// completion order. Every experiment builds its own engines, so each
// worker's simulation state is goroutine-confined and the results are
// bit-identical to a sequential run (parallel == 1).
func RunAll(specs []Spec, parallel int) []Result {
	if parallel < 1 {
		parallel = 1
	}
	if parallel > len(specs) {
		parallel = len(specs)
	}
	results := make([]Result, len(specs))
	idx := make(chan int)
	go func() {
		for i := range specs {
			idx <- i
		}
		close(idx)
	}()
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				start := time.Now()
				out, err := runSpec(specs[i])
				results[i] = Result{Spec: specs[i], Output: out, Wall: time.Since(start), Err: err}
			}
		}()
	}
	wg.Wait()
	return results
}

// Bench is the machine-readable benchmark report pisobench -json writes:
// per-experiment wall-clock, event throughput, and the headline result
// rows, for perf and regression tracking across configurations.
type Bench struct {
	Suite       string            `json:"suite"`
	Parallel    int               `json:"parallel"`
	Short       bool              `json:"short"`
	WallSeconds float64           `json:"wall_seconds"`
	Events      uint64            `json:"events"`
	Experiments []BenchExperiment `json:"experiments"`
}

// BenchExperiment is one experiment's entry in a Bench report.
type BenchExperiment struct {
	ID           string      `json:"id"`
	Title        string      `json:"title"`
	WallSeconds  float64     `json:"wall_seconds"`
	Events       uint64      `json:"events"`
	EventsPerSec float64     `json:"events_per_sec"`
	Rows         []stats.Row `json:"rows"`
	// Metrics embeds the per-configuration observability summaries
	// (revocation latency p99, per-SPU CPU share) for instrumented
	// experiments.
	Metrics []MetricSummary `json:"metrics,omitempty"`
	// Attribution embeds the per-configuration profiler summaries
	// (per-process latency breakdown, interference matrix) for
	// profiled experiments.
	Attribution []AttributionSummary `json:"attribution,omitempty"`
	// Latency embeds the per-configuration tail-latency summaries
	// (per-tenant percentile ladders and SLO attainment) for the
	// experiments that run with latency tracking on.
	Latency []LatencySummary `json:"latency,omitempty"`
	// Controller embeds the per-configuration SLO-controller summaries
	// for the experiments that run with the closed loop on.
	Controller []ControllerSummary `json:"controller,omitempty"`
	// Error is set when the experiment panicked instead of finishing.
	Error string `json:"error,omitempty"`
}

// BenchReport assembles a Bench from finished results.
func BenchReport(results []Result, parallel int, short bool, wall time.Duration) Bench {
	b := Bench{
		Suite:       "pisobench",
		Parallel:    parallel,
		Short:       short,
		WallSeconds: wall.Seconds(),
	}
	for _, r := range results {
		e := BenchExperiment{
			ID:          r.Spec.ID,
			Title:       r.Spec.Title,
			WallSeconds: r.Wall.Seconds(),
			Events:      r.Output.Events,
			Rows:        r.Output.Rows(),
			Metrics:     r.Output.Metrics,
			Attribution: r.Output.Attribution,
			Latency:     r.Output.Latency,
			Controller:  r.Output.Controller,
		}
		if s := r.Wall.Seconds(); s > 0 {
			e.EventsPerSec = float64(e.Events) / s
		}
		if r.Err != nil {
			e.Error = r.Err.Error()
		}
		b.Events += e.Events
		b.Experiments = append(b.Experiments, e)
	}
	return b
}
