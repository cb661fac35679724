package experiment

import (
	"io"
	"math"

	"perfiso/internal/kernel"
	"perfiso/internal/latency"
	"perfiso/internal/metrics"
	"perfiso/internal/stats"
)

// metricsPeriod is the sampling period the instrumented experiments use
// when the caller did not pick one. Sampling only reads machine state,
// so turning it on never changes a single table cell.
const metricsPeriod = metrics.DefaultPeriod

// MetricSummary is one experiment configuration's headline isolation
// metrics, distilled from the kernel's metrics registry: how often the
// scheduler took loaned CPUs back, how long owners waited for them
// (the §3.1 revocation cost), and how the CPU time actually divided
// between the SPUs. Every field is simulation-derived and deterministic
// — no wall-clock value appears, so the same run always summarizes to
// the same bytes.
type MetricSummary struct {
	// Config names the run within its experiment, e.g. "PIso" or
	// "SMP/unbalanced".
	Config string `json:"config"`
	// Loans counts CPUs lent to SPUs beyond their entitlement.
	Loans int64 `json:"loans"`
	// Revocations counts loans the scheduler took back for an owner.
	Revocations int64 `json:"revocations"`
	// RevocationP99Ms is the 99th-percentile time an owner's thread
	// waited for a revoked CPU, in milliseconds (0 when no revocations).
	RevocationP99Ms float64 `json:"revocation_p99_ms"`
	// CPUShare is each user SPU's fraction of the total user CPU time.
	CPUShare map[string]float64 `json:"cpu_share"`

	// body writes the run's full registry export into metrics.jsonl;
	// unexported so bench JSON stays a summary.
	body func(io.Writer) error
}

// summarizeMetrics distills a finished kernel's registry. ok is false
// when the kernel ran without observability.
func summarizeMetrics(k *kernel.Kernel, config string) (MetricSummary, bool) {
	reg := k.Metrics()
	if reg == nil {
		return MetricSummary{}, false
	}
	s := MetricSummary{Config: config, CPUShare: make(map[string]float64)}
	for _, c := range reg.Counters() {
		switch c.Name {
		case metrics.KeySchedLoans:
			s.Loans += c.Value()
		case metrics.KeySchedRevocations:
			s.Revocations += c.Value()
		}
	}
	var lat []float64
	var spill *latency.Histogram
	for _, d := range reg.Distributions() {
		if d.Name != metrics.KeySchedRevokeLatency {
			continue
		}
		if d.Exact() {
			lat = append(lat, d.Values()...)
			continue
		}
		if spill == nil {
			spill = latency.New()
		}
		spill.Merge(d.Hist())
	}
	if spill != nil {
		// At least one distribution overflowed its exact cap: fold the
		// exact remainder into the bucketed view and answer from there.
		for _, v := range lat {
			spill.Record(int64(math.Round(v * metrics.DistScale)))
		}
		s.RevocationP99Ms = float64(spill.Quantile(0.99)) / metrics.DistScale * 1e3
	} else if len(lat) > 0 {
		s.RevocationP99Ms = stats.Quantile(lat, 0.99) * 1e3
	}
	var total float64
	sch := k.Scheduler()
	users := k.SPUs().Users()
	for _, u := range users {
		if t := sch.PerSPUTime[u.ID()]; t != nil {
			total += t.Seconds()
		}
	}
	for _, u := range users {
		var sec float64
		if t := sch.PerSPUTime[u.ID()]; t != nil {
			sec = t.Seconds()
		}
		if total > 0 {
			s.CPUShare[u.Name()] = sec / total
		}
	}
	names := k.MetricNames()
	s.body = func(w io.Writer) error { return reg.WriteJSONL(w, names) }
	return s, true
}

// metricsHeader introduces one configuration's block in metrics.jsonl.
// Fixed field order keeps the bytes deterministic.
type metricsHeader struct {
	Type            string             `json:"type"`
	Experiment      string             `json:"experiment"`
	Config          string             `json:"config"`
	Loans           int64              `json:"loans"`
	Revocations     int64              `json:"revocations"`
	RevocationP99Ms float64            `json:"revocation_p99_ms"`
	CPUShare        map[string]float64 `json:"cpu_share"`
}

// block is the summary's section of metrics.jsonl: the header carrying
// the summary, then the registry export (the lines pisosim -metrics
// writes).
func (s MetricSummary) block(experiment string) (any, func(io.Writer) error) {
	return metricsHeader{
		Type: "experiment", Experiment: experiment, Config: s.Config,
		Loans: s.Loans, Revocations: s.Revocations,
		RevocationP99Ms: s.RevocationP99Ms, CPUShare: s.CPUShare,
	}, s.body
}

// observe folds a finished kernel's dispatch total into the meter and,
// when the kernel ran with observability or profiling on, appends its
// metric and attribution summaries under the given configuration name.
func (m *Meter) observe(k *kernel.Kernel, config string) {
	m.count(k)
	if s, ok := summarizeMetrics(k, config); ok {
		m.Metrics = append(m.Metrics, s)
	}
	if s, ok := summarizeAttribution(k, config); ok {
		m.Attribution = append(m.Attribution, s)
	}
	if s, ok := summarizeLatency(k, config); ok {
		m.Latency = append(m.Latency, s)
	}
	if s, ok := summarizeController(k, config); ok {
		m.Controller = append(m.Controller, s)
	}
}
