package experiment

import (
	"strings"
	"testing"
	"time"
)

// One panicking experiment must not take down the pool: the survivors
// finish, the failure is captured with its id and stack, and the bench
// report records it.
func TestRunAllRecoversPanickingSpec(t *testing.T) {
	ok := func(id string) Spec {
		return Spec{ID: id, Title: id, Run: func() Output {
			return Output{Meter: Meter{Events: 7}}
		}}
	}
	specs := []Spec{
		ok("healthy-1"),
		{ID: "exploder", Title: "exploder", Run: func() Output {
			panic("invariant violation at 3s [mem on tick]: books off")
		}},
		ok("healthy-2"),
	}
	results := RunAll(specs, 2)
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy specs reported errors: %v, %v", results[0].Err, results[2].Err)
	}
	if results[0].Output.Events != 7 || results[2].Output.Events != 7 {
		t.Fatal("healthy specs lost their output")
	}
	err := results[1].Err
	if err == nil {
		t.Fatal("panicking spec reported no error")
	}
	for _, want := range []string{"exploder", "books off", "goroutine"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err.Error(), want)
		}
	}

	b := BenchReport(results, 2, false, time.Second)
	if b.Experiments[1].Error == "" {
		t.Fatal("bench report dropped the failure")
	}
	if b.Experiments[0].Error != "" || b.Experiments[2].Error != "" {
		t.Fatal("bench report marked healthy experiments failed")
	}
}

// A panic in every worker's first spec must still drain the queue.
func TestRunAllAllPanicking(t *testing.T) {
	boom := func(id string) Spec {
		return Spec{ID: id, Run: func() Output { panic(id) }}
	}
	results := RunAll([]Spec{boom("a"), boom("b"), boom("c")}, 3)
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("result %d lost its panic", i)
		}
	}
}
