package experiment

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perfiso/internal/sim"
)

// specsByID fetches registered specs, failing the test on a bad ID.
func specsByID(t *testing.T, ids ...string) []Spec {
	t.Helper()
	var specs []Spec
	for _, id := range ids {
		s, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		specs = append(specs, s)
	}
	return specs
}

// artifactRun is one way of running the registry: an event queue and a
// worker count. A deterministic artifact is byte-identical across runs.
type artifactRun struct {
	name     string
	queue    sim.QueueKind
	parallel int
}

var (
	parallel1 = artifactRun{"parallel 1", sim.QueueCalendar, 1}
	parallel8 = artifactRun{"parallel 8", sim.QueueCalendar, 8}
	heapQueue = artifactRun{"heap queue", sim.QueueHeap, 1}
)

// checkArtifactDeterministic runs specs ids once per run, writes the
// artifacts and checks file: byte-identical across runs, every line
// JSON, no wall-clock value, the given experiment headers per id, and at
// least one line of each given type plus the experiment header type.
func checkArtifactDeterministic(t *testing.T, file string, ids []string, runs []artifactRun, headers map[string]int, types []string) {
	t.Helper()
	specs := specsByID(t, ids...)
	render := func(r artifactRun) string {
		old := sim.SetDefaultQueue(r.queue)
		defer sim.SetDefaultQueue(old)
		dir := t.TempDir()
		if err := WriteArtifacts(dir, RunAll(specs, r.parallel)); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	got := render(runs[0])
	for _, r := range runs[1:] {
		if other := render(r); other != got {
			t.Fatalf("%s differs between %s and %s:\n--- %s ---\n%.600s\n--- %s ---\n%.600s",
				file, runs[0].name, r.name, runs[0].name, got, r.name, other)
		}
	}
	seen := make(map[string]int)
	kinds := make(map[string]int)
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("%s line is not JSON: %s", file, line)
		}
		kind, _ := obj["type"].(string)
		kinds[kind]++
		if kind == "experiment" {
			id, _ := obj["experiment"].(string)
			seen[id]++
		}
	}
	for id, want := range headers {
		if seen[id] != want {
			t.Errorf("%s has %d %s headers, want %d", file, seen[id], id, want)
		}
	}
	for _, kind := range append(types, "experiment") {
		if kinds[kind] == 0 {
			t.Errorf("%s has no %q lines; types seen: %v", file, kind, kinds)
		}
	}
	if strings.Contains(got, "wall") {
		t.Errorf("%s mentions wall time", file)
	}
}

// The registry artifacts are part of the harness determinism contract.
// The metrics and profile files have no queue test of their own, so
// their parallel tests also compare against the heap queue.

// fig5 runs 3 configurations, fig7 runs 6 (3 schemes x balanced /
// unbalanced).
func TestMetricsArtifactDeterministicAcrossParallel(t *testing.T) {
	checkArtifactDeterministic(t, "metrics.jsonl", []string{"fig5", "fig7"},
		[]artifactRun{parallel1, parallel8, heapQueue},
		map[string]int{"fig5": 3, "fig7": 6}, nil)
}

// The attribution artifact — latency rows, theft rows and raw span
// lines.
func TestProfileJSONLDeterministicUnderParallelRunAll(t *testing.T) {
	checkArtifactDeterministic(t, "profile.jsonl", []string{"fig5", "tab3", "isolation-under-faults"},
		[]artifactRun{parallel1, parallel8, heapQueue}, nil, []string{"proc"})
}

// 4 solo runs + SMP + PIso.
var (
	latencyHeaders = map[string]int{"open-arrival": 6}
	latencyTypes   = []string{"latency", "slo", "latency_window"}
)

func TestLatencyArtifactDeterministicAcrossParallel(t *testing.T) {
	checkArtifactDeterministic(t, "latency.jsonl", []string{"open-arrival"},
		[]artifactRun{parallel1, parallel8}, latencyHeaders, latencyTypes)
}

// Simulated time only, no tie-break leakage.
func TestLatencyArtifactDeterministicAcrossQueues(t *testing.T) {
	checkArtifactDeterministic(t, "latency.jsonl", []string{"open-arrival"},
		[]artifactRun{parallel1, heapQueue}, latencyHeaders, latencyTypes)
}

// Only the adaptive configuration runs the loop.
var (
	controllerHeaders = map[string]int{"slo-controller": 1}
	controllerTypes   = []string{"controller", "control"}
)

func TestControllerArtifactDeterministicAcrossParallel(t *testing.T) {
	checkArtifactDeterministic(t, "controller.jsonl", []string{"slo-controller"},
		[]artifactRun{parallel1, parallel8}, controllerHeaders, controllerTypes)
}

// The control loop reads simulated time only.
func TestControllerArtifactDeterministicAcrossQueues(t *testing.T) {
	checkArtifactDeterministic(t, "controller.jsonl", []string{"slo-controller"},
		[]artifactRun{parallel1, heapQueue}, controllerHeaders, controllerTypes)
}

// A failing export surfaces as an error instead of a header line with
// an empty body.
func TestWriteArtifactsReturnsExportErrors(t *testing.T) {
	boom := errors.New("boom")
	failing := LatencySummary{Config: "c", body: func(io.Writer) error { return boom }}
	r := Result{Spec: Spec{ID: "x"}, Output: Output{Meter: Meter{Latency: []LatencySummary{failing}}}}
	if err := WriteArtifacts(t.TempDir(), []Result{r}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}
