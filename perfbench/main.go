// Command perfbench is the simulator's benchmark. It generates one
// workload's cases from a seed, runs them back to back on one goroutine
// through the kernel's public entry points, checks every case for
// failures, and prints every metric by name with its unit.
//
//	go run . --workload tenants --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced passes with traced ones (spans around the public
// calls and a CPU profile folded by layer) and reports the per-layer
// metrics. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics; the line before it
// is the full record, stamped with the host fingerprint. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sync/atomic"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Summary is the benchmark's last output line.
type Summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is the full output record printed before the summary.
type Record struct {
	Record     string            `json:"record"`
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Trace      int               `json:"trace"`
	Host       Host              `json:"host"`
	Cases      int               `json:"cases"`
	Passes     int               `json:"passes"`
	CaseCount  int               `json:"case_count"`
	FailedFrac float64           `json:"failed_frac"`
	SimDigest  string            `json:"sim_digest"`
	ProbeMS    float64           `json:"probe_ms,omitempty"`
	SLOAttain  *float64          `json:"slo_attain_pct,omitempty"`
	Metrics    map[string]Metric `json:"metrics"`
}

// minPasses is the fewest timed passes of each kind a run makes after
// its warm-up pass, so every case is replayed and has a median timing.
const minPasses = 2

// profileHz is the traced run's CPU sampling rate: four times pprof's
// default, for a per-layer split that is steadier within one run.
const profileHz = 400

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "tenants", "workload to run: tenants, mempressure or diskstream")
	seed := fl.Uint64("seed", 1, "seed the workload's cases are generated from")
	seconds := fl.Float64("seconds", 10, "wall-clock seconds of timed passes")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	cases, err := Generate(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{cases: cases, first: make([]*Result, len(cases)), log: stderr}
	budget := time.Duration(*seconds * float64(time.Second))
	var m map[string]Metric
	if *trace == 0 {
		m = b.endToEnd(budget)
	} else {
		m, err = b.perLayer(budget)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	rec := Record{
		Record:     "perfbench",
		Workload:   *name,
		Seed:       *seed,
		Trace:      *trace,
		Host:       fingerprint(),
		Cases:      len(cases),
		Passes:     b.passes,
		CaseCount:  b.attempted,
		FailedFrac: float64(b.failed) / float64(b.attempted),
		SimDigest:  fmt.Sprintf("%016x", b.simDigest()),
		ProbeMS:    1e3 * b.probeS,
		Metrics:    m,
	}
	if good, total := b.slo(); total > 0 {
		pct := 100 * float64(good) / float64(total)
		rec.SLOAttain = &pct
	}
	summary := Summary{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   m,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(summary); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench is one run over a workload's generated cases.
type bench struct {
	cases []Case
	first []*Result // each case's first execution: digest and counters
	log   io.Writer

	passes, attempted, failed int
	probeS                    float64 // median host probe time of the timed passes; 0 when traced
}

// pass is what one pass over every case measured.
type pass struct {
	total, setup []time.Duration // per case, host CPU time
	mallocs      uint64
	allocBytes   uint64
	gcCPU, cpu   float64 // runtime/metrics CPU-seconds estimates
}

// runPass runs every case once. A case fails on an error RunCase
// reports or, when it has run before, on a digest that differs from its
// first run. When probes is non-nil the host probe runs before the
// first case and then about every probeEvery of case time, and its
// times in seconds are appended to probes.
func (b *bench) runPass(spans *spanTimes, probes *[]float64) pass {
	p := pass{total: make([]time.Duration, len(b.cases)), setup: make([]time.Duration, len(b.cases))}
	var m0, m1 runtime.MemStats
	cpu0 := readCPU()
	runtime.ReadMemStats(&m0)
	var sinceProbe time.Duration
	for i, c := range b.cases {
		if probes != nil && (i == 0 || sinceProbe >= probeEvery) {
			*probes = append(*probes, probe().Seconds())
			sinceProbe = 0
		}
		r := RunCase(c, spans, nil)
		sinceProbe += r.Total
		b.attempted++
		if f := b.first[i]; f == nil {
			b.first[i] = &r
		} else if r.Err == "" && f.Err == "" && r.Digest != f.Digest {
			r.Err = fmt.Sprintf("replay digest %016x differs from first run %016x", r.Digest, f.Digest)
		}
		if r.Err != "" {
			b.failed++
			fmt.Fprintf(b.log, "perfbench: case failed: %v: %s\n", c, r.Err)
		}
		p.total[i], p.setup[i] = r.Total, r.Setup
	}
	runtime.ReadMemStats(&m1)
	cpu1 := readCPU()
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCPU, p.cpu = cpu1.gc-cpu0.gc, cpu1.busy()-cpu0.busy()
	b.passes++
	return p
}

// fits reports whether another pass fits in a run's wall-clock budget:
// the run so far plus half a mean pass must stay within it, so a run
// ends close to its budget even when passes are long.
func fits(start time.Time, passes int, budget time.Duration) bool {
	el := time.Since(start)
	return el+el/time.Duration(2*passes) < budget
}

// caseMedians returns, per case, the median over passes of a timing in
// seconds. Taking each case's median before summing keeps a burst of
// host noise during one pass from moving the run's figures.
func caseMedians(ps []pass, get func(pass) []time.Duration) []float64 {
	out := make([]float64, len(get(ps[0])))
	xs := make([]float64, len(ps))
	for i := range out {
		for j, p := range ps {
			xs[j] = get(p)[i].Seconds()
		}
		out[i] = median(xs)
	}
	return out
}

func totals(p pass) []time.Duration { return p.total }
func setups(p pass) []time.Duration { return p.setup }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// endToEnd makes a warm-up pass, which records each case's first
// digest and lets the heap grow to its working size, then timed passes
// until the budget is spent (at least minPasses), then one untimed pass
// that measures peak live heap. Timed passes run the host probe, and
// host times are scaled to the probe's reference speed (see probe.go).
func (b *bench) endToEnd(budget time.Duration) map[string]Metric {
	var ps []pass
	var allocs, probes []float64
	start := time.Now()
	probe()
	b.runPass(nil, nil)
	for len(ps) < minPasses || fits(start, len(ps)+1, budget) {
		p := b.runPass(nil, &probes)
		ps = append(ps, p)
		allocs = append(allocs, float64(p.mallocs)/float64(len(b.cases)))
	}
	b.probeS = median(probes)
	scale := probeRef.Seconds() / b.probeS
	caseS := caseMedians(ps, totals)
	for i := range caseS {
		caseS[i] *= scale
	}
	return map[string]Metric{
		"cases_per_s":     {float64(len(caseS)) / sum(caseS), "1/s"},
		"case_ms_p50":     {1e3 * quantile(caseS, 0.5), "ms"},
		"case_ms_p90":     {1e3 * quantile(caseS, 0.9), "ms"},
		"setup_s":         {scale * sum(caseMedians(ps, setups)), "s"},
		"allocs_per_case": {median(allocs), "count"},
		"peak_live_mb":    {b.peakLiveMB(), "MB"},
		"sim_resp_s":      {b.meanResponse(), "s"},
	}
}

// perLayer makes a warm-up pass, then alternates untraced and traced
// passes until the budget is spent (at least minPasses of each).
// Traced passes time the public entry points and run under a CPU
// profile folded by layer; untraced passes give the baseline for
// trace.overhead_frac, ns per event and the Go runtime's GC share.
func (b *bench) perLayer(budget time.Duration) (map[string]Metric, error) {
	n := len(b.cases)
	var plain, traced []pass
	var spans spanTimes
	var fold Fold
	start := time.Now()
	b.runPass(nil, nil)
	for i := 0; i < 2*minPasses || fits(start, i+1, budget); i++ {
		if i%2 == 0 {
			plain = append(plain, b.runPass(nil, nil))
			continue
		}
		var buf bytes.Buffer
		runtime.SetCPUProfileRate(profileHz) // StartCPUProfile keeps this rate
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		traced = append(traced, b.runPass(&spans, nil))
		pprof.StopCPUProfile()
		f, err := FoldProfile(buf.Bytes())
		if err != nil {
			return nil, err
		}
		fold.Add(f)
		// Collect the fold's garbage now, or the next untraced pass pays
		// for it and trace.overhead_frac reads low.
		runtime.GC()
	}
	if fold.Samples == 0 {
		return nil, fmt.Errorf("cpu profile holds no samples")
	}

	m := map[string]Metric{}
	frac := func(v int64) float64 { return float64(v) / float64(fold.Samples) }
	for _, l := range foldLayers {
		m[l+".self_frac"] = Metric{frac(fold.Self[l]), "fraction"}
		m[l+".incl_frac"] = Metric{frac(fold.Incl[l]), "fraction"}
	}
	m["goruntime.self_frac"] = Metric{frac(fold.Self["goruntime"]), "fraction"}
	m["other.self_frac"] = Metric{frac(fold.Self["other"]), "fraction"}
	var gcCPU, cpu, allocBytes float64
	for _, p := range plain {
		gcCPU += p.gcCPU
		cpu += p.cpu
		allocBytes += float64(p.allocBytes)
	}
	m["goruntime.gc_cpu_frac"] = Metric{ratio(gcCPU, cpu), "fraction"}
	m["goruntime.alloc_bytes_per_case"] = Metric{allocBytes / float64(n*len(plain)), "bytes"}
	plainS, tracedS := sum(caseMedians(plain, totals)), sum(caseMedians(traced, totals))
	m["trace.overhead_frac"] = Metric{1 - plainS/tracedS, "fraction"}
	for i, s := range spanNames {
		m[s+"_ms"] = Metric{spans[i].Seconds() * 1e3 / float64(n*len(traced)), "ms"}
	}

	var c Counts
	for _, r := range b.first {
		c.add(r.C)
	}
	m["sim.ns_per_event"] = Metric{1e9 * plainS / c.Events, "ns"}
	per := func(v float64) float64 { return v / float64(n) }
	count := func(name string, v float64) { m[name] = Metric{per(v), "count"} }
	count("sim.events", c.Events)
	count("sim.queue_max_depth", c.QueueMaxDepth)
	m["sim.queue_collision_rate"] = Metric{ratio(c.QueueCollide, c.QueuePushes), "fraction"}
	count("disk.requests", c.DiskRequests)
	count("disk.merges", c.DiskMerges)
	count("disk.queue_mean", c.DiskQueueMean)
	m["disk.wait_ms_mean"] = Metric{1e3 * ratio(c.DiskWaitSum, c.DiskRequests), "ms"}
	m["disk.service_ms_mean"] = Metric{1e3 * ratio(c.DiskServiceSum, c.DiskRequests), "ms"}
	count("mem.evictions", c.MemEvictions)
	count("mem.dirty_writes", c.MemDirtyWrites)
	count("mem.waitq_mean", c.MemWaitqMean)
	m["fs.hit_ratio"] = Metric{ratio(c.FSHits, c.FSHits+c.FSMisses), "fraction"}
	count("fs.read_reqs", c.FSReadReqs)
	count("fs.write_reqs", c.FSWriteReqs)
	count("sched.dispatches", c.Dispatches)
	count("sched.loans", c.Loans)
	count("sched.revocations", c.Revocations)
	count("lock.acquisitions", c.LockAcq)
	m["lock.wait_ms"] = Metric{per(c.LockWaitMS), "ms"}
	count("latency.requests", c.LatRequests)
	count("control.retunes", c.Retunes)
	count("control.shed", c.Shed)
	count("fault.injected", c.FaultsInjected)
	count("invariant.checks", c.AuditChecks)
	count("invariant.violations", c.Violations)
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// meanResponse is the mean simulated response time, in seconds, of
// every job the cases spawned.
func (b *bench) meanResponse() float64 {
	var sum float64
	var n int
	for _, r := range b.first {
		for _, t := range r.Responses {
			sum += t.Seconds()
			n++
		}
	}
	return ratio(sum, float64(n))
}

// slo sums SLO-tracked requests over the cases: those that met their
// SLO and all that were observed.
func (b *bench) slo() (good, total int64) {
	for _, r := range b.first {
		good += r.SLOGood
		total += r.SLOTotal
	}
	return good, total
}

// simDigest folds every case's modelled-result digest, in case order,
// into one value for the workload and seed.
func (b *bench) simDigest() uint64 {
	h := uint64(14695981039346656037)
	for _, r := range b.first {
		h = (h ^ r.Digest) * 1099511628211
	}
	return h
}

// peakLiveMB runs every case once more, untimed, and returns the median
// over cases of the largest live Go heap seen while the case's kernel
// was alive. A low GC target makes collections frequent, a sentinel
// finalizer samples the live heap after each one, and a forced
// collection samples it once more when Run returns.
func (b *bench) peakLiveMB() float64 {
	old := debug.SetGCPercent(10)
	defer debug.SetGCPercent(old)
	var probe heapProbe
	probe.start()
	defer probe.stop()
	peaks := make([]float64, len(b.cases))
	for i, c := range b.cases {
		runtime.GC()
		probe.peak.Store(0)
		RunCase(c, nil, func() {
			runtime.GC()
			probe.sample()
		})
		peaks[i] = float64(probe.peak.Load()) / (1 << 20)
	}
	return median(peaks)
}

// heapProbe records the peak of /gc/heap/live:bytes over GC cycles.
type heapProbe struct {
	on   atomic.Bool
	peak atomic.Uint64
}

// gcSentinel is garbage whose finalizer runs once per GC cycle; it
// holds a pointer so the allocator never batches it as a tiny object.
type gcSentinel struct {
	_ *int
	_ [8]byte
}

func (h *heapProbe) start() {
	h.on.Store(true)
	h.arm()
}

func (h *heapProbe) stop() { h.on.Store(false) }

func (h *heapProbe) arm() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		if h.on.Load() {
			h.sample()
			h.arm()
		}
	})
}

func (h *heapProbe) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for {
		cur := h.peak.Load()
		if v <= cur || h.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// cpuClasses are runtime/metrics CPU-time estimates in seconds.
type cpuClasses struct{ gc, total, idle float64 }

func (c cpuClasses) busy() float64 { return c.total - c.idle }

func readCPU() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return cpuClasses{gc: v(0), total: v(1), idle: v(2)}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
