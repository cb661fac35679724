package experiment

import "testing"

// TestRegistryAttributionConservation is the acceptance gate: every
// registry experiment runs profiled, and for every finished process in
// every configuration the bucket sum equals the response time exactly —
// integer nanoseconds, no epsilon.
func TestRegistryAttributionConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry")
	}
	// abl-network drives a bare netbw link on a raw engine — no kernel,
	// no processes — so it alone has nothing to attribute.
	kernelless := map[string]bool{"abl-network": true}
	results := RunAll(Registry(), 8)
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s failed: %v", r.Spec.ID, r.Err)
			continue
		}
		if kernelless[r.Spec.ID] {
			continue
		}
		if len(r.Output.Attribution) == 0 {
			t.Errorf("%s produced no attribution summaries; is its runner profiled?", r.Spec.ID)
			continue
		}
		for _, as := range r.Output.Attribution {
			if as.Tasks == 0 {
				t.Errorf("%s/%s accounted zero tasks", r.Spec.ID, as.Config)
			}
			if as.ConservationViolations != 0 {
				t.Errorf("%s/%s: %d conservation violations", r.Spec.ID, as.Config, as.ConservationViolations)
			}
			for _, p := range as.Procs {
				if p.Sum() != p.Response {
					t.Errorf("%s/%s %s: buckets sum %d ns != response %d ns",
						r.Spec.ID, as.Config, p.Proc, p.Sum(), p.Response)
				}
			}
		}
	}
}
