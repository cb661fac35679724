package experiment

import (
	"io"

	"perfiso/internal/kernel"
)

// TenantLatency is one tenant's tail-latency profile from a kernel's
// latency registry: request counts (censored in-flight requests called
// out), the percentile ladder, and SLO attainment. All durations are
// integer simulated nanoseconds, so the same run always summarizes to
// the same bytes.
type TenantLatency struct {
	Name     string `json:"name"`
	SPU      int    `json:"spu"`
	Count    int64  `json:"count"`
	Censored int64  `json:"censored"`
	Shed     int64  `json:"shed,omitempty"`
	MeanNS   int64  `json:"mean_ns"`
	P50NS    int64  `json:"p50_ns"`
	P99NS    int64  `json:"p99_ns"`
	P999NS   int64  `json:"p999_ns"`
	MaxNS    int64  `json:"max_ns"`
	// SLO fields: zero/absent when the tenant declared no objective.
	SLOThresholdNS int64   `json:"slo_threshold_ns,omitempty"`
	SLOTarget      float64 `json:"slo_target,omitempty"`
	Attainment     float64 `json:"attainment,omitempty"`
	BudgetBurn     float64 `json:"budget_burn,omitempty"`
}

// LatencySummary is one experiment configuration's latency registry
// distilled: one TenantLatency per registered stream, in registration
// order.
type LatencySummary struct {
	// Config names the run within its experiment, e.g. "PIso" or
	// "solo/web".
	Config string `json:"config"`
	// Tenants is one entry per latency stream, registration order.
	Tenants []TenantLatency `json:"tenants"`

	// body writes the run's full latency export (summary, SLO, and
	// window timeline lines) into latency.jsonl; unexported so bench
	// JSON stays a summary.
	body func(io.Writer) error
}

// Tenant returns the named tenant's profile, or nil.
func (s LatencySummary) Tenant(name string) *TenantLatency {
	for i := range s.Tenants {
		if s.Tenants[i].Name == name {
			return &s.Tenants[i]
		}
	}
	return nil
}

// summarizeLatency distills a finished kernel's latency registry. ok is
// false when the kernel ran without latency tracking or recorded
// nothing.
func summarizeLatency(k *kernel.Kernel, config string) (LatencySummary, bool) {
	reg := k.Latency()
	if reg == nil || reg.Empty() {
		return LatencySummary{}, false
	}
	s := LatencySummary{Config: config}
	for _, tr := range reg.Trackers() {
		h := tr.Total()
		if h.Count() == 0 {
			continue
		}
		tl := TenantLatency{
			Name: tr.Name, SPU: int(tr.SPU),
			Count: h.Count(), Censored: tr.Censored(), Shed: tr.Shed(),
			MeanNS: h.Mean(),
			P50NS:  h.Quantile(0.50), P99NS: h.Quantile(0.99),
			P999NS: h.Quantile(0.999), MaxNS: h.Max(),
		}
		if tr.Obj.Valid() {
			tl.SLOThresholdNS = int64(tr.Obj.Threshold)
			tl.SLOTarget = tr.Obj.Target
			tl.Attainment = tr.Attainment()
			tl.BudgetBurn = tr.BudgetBurn()
		}
		s.Tenants = append(s.Tenants, tl)
	}
	s.body = reg.WriteJSONL
	return s, true
}

// latencyHeader introduces one configuration's block in latency.jsonl.
// Fixed field order keeps the bytes deterministic.
type latencyHeader struct {
	Type       string `json:"type"`
	Experiment string `json:"experiment"`
	Config     string `json:"config"`
	Tenants    int    `json:"tenants"`
}

// block is the summary's section of latency.jsonl: the header, then the
// run's latency export (the same lines pisosim -latency writes).
func (s LatencySummary) block(experiment string) (any, func(io.Writer) error) {
	return latencyHeader{
		Type: "experiment", Experiment: experiment, Config: s.Config,
		Tenants: len(s.Tenants),
	}, s.body
}
