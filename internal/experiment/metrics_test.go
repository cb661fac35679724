package experiment

import (
	"math"
	"testing"
)

// The instrumented experiments run with the registry on and distill one
// summary per kernel configuration, in run order.
func TestCPUIsoCollectsMetricSummaries(t *testing.T) {
	r := RunCPUIso(CPUIsoOptions{})
	if len(r.Metrics) != len(Schemes) {
		t.Fatalf("got %d summaries, want one per scheme (%d)", len(r.Metrics), len(Schemes))
	}
	for i, s := range Schemes {
		ms := r.Metrics[i]
		if ms.Config != s.String() {
			t.Fatalf("summary %d config = %q, want %q", i, ms.Config, s.String())
		}
		var share float64
		for _, name := range []string{"ocean", "eda"} {
			if _, ok := ms.CPUShare[name]; !ok {
				t.Fatalf("%s summary missing CPU share for %q: %v", ms.Config, name, ms.CPUShare)
			}
			share += ms.CPUShare[name]
		}
		if math.Abs(share-1) > 1e-9 {
			t.Fatalf("%s CPU shares sum to %v, want 1", ms.Config, share)
		}
		if ms.body == nil {
			t.Fatalf("%s summary carries no registry export", ms.Config)
		}
	}
	// SPU 2 is overcommitted, so performance isolation must have lent
	// it CPUs and revoked some when Ocean's gang woke.
	var piso MetricSummary
	for _, ms := range r.Metrics {
		if ms.Config == "PIso" {
			piso = ms
		}
	}
	if piso.Loans == 0 {
		t.Fatal("PIso run recorded no CPU loans")
	}
	if piso.Revocations > 0 && piso.RevocationP99Ms <= 0 {
		t.Fatalf("revocations happened but p99 latency is %v", piso.RevocationP99Ms)
	}
}
