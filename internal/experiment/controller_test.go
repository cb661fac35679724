package experiment

import "testing"

// TestSLOControllerSeparation is the acceptance gate for the closed
// loop: under the same diurnal load shift composed with disk-slow and
// cpu-off faults, adaptive PIso holds every tenant SLO, static PIso
// misses at least one, and SMP misses more than static — and the
// adaptive run actually adapted (retunes and boosts happened, the
// degraded disk tripped its breaker). The invariant auditor runs
// fail-fast inside every kernel here, so the run completing at all
// certifies zero violations of the conservation, floor, and bounded-
// actuation laws.
func TestSLOControllerSeparation(t *testing.T) {
	r := RunSLOController()
	misses := func(config string) int {
		c := r.Config(config)
		if c == nil {
			t.Fatalf("missing frontier row %q", config)
		}
		return c.Tenants - c.Held
	}
	if m := misses("PIso-adaptive"); m != 0 {
		t.Errorf("adaptive PIso misses %d SLOs, want 0:\n%s", m, r.Table())
	}
	if m := misses("PIso-static"); m < 1 {
		t.Errorf("static PIso misses %d SLOs, want >= 1", m)
	}
	if smp, static := misses("SMP"), misses("PIso-static"); smp <= static {
		t.Errorf("SMP misses %d SLOs, static PIso %d; want SMP to miss more", smp, static)
	}
	ad := r.Config("PIso-adaptive")
	if ad.Stats.Retunes == 0 || ad.Stats.Boosts == 0 {
		t.Errorf("adaptive run did not adapt: %+v", ad.Stats)
	}
	if ad.Stats.Trips == 0 {
		t.Errorf("disk-slow fault did not trip the breaker: %+v", ad.Stats)
	}
	// The frontier's point: the SLOs are not bought with throughput.
	// Noise keeps within a few percent of what it gets without the
	// controller.
	st := r.Config("PIso-static")
	if ad.NoiseCPU < st.NoiseCPU*0.9 {
		t.Errorf("controller cost noise %.2fs of CPU (static %.2fs); degradation should be graceful",
			st.NoiseCPU-ad.NoiseCPU, st.NoiseCPU)
	}
	for _, cfg := range []string{"SMP", "PIso-static", "PIso-adaptive"} {
		if c := r.Config(cfg); c.Util <= 0 {
			t.Errorf("%s reports zero utilization", cfg)
		}
	}
}
