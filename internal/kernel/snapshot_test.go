package kernel

import (
	"bytes"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/fault"
	"perfiso/internal/fs"
	"perfiso/internal/proc"
	"perfiso/internal/sim"
)

// faultedScenario boots a two-SPU machine running forked compile-like
// trees under a fault plan that exercises every injector path, so the
// snapshot covers scheduler loans, memory pressure, disk queues, and
// active faults.
func faultedScenario(t *testing.T) *Kernel {
	t.Helper()
	plan, err := fault.ParsePlan(
		"disk-slow:0:200ms:600ms:3,cpu-off:1:300ms:500ms,mem-loss:0:400ms:400ms:0.25")
	if err != nil {
		t.Fatal(err)
	}
	k := New(smallMachine(), core.PIso, Options{Faults: plan, MetricsPeriod: 100 * sim.Millisecond})
	a := k.NewSPU("a", 1)
	b := k.NewSPU("b", 1)
	k.Boot()
	for _, id := range []core.SPUID{a.ID(), b.ID()} {
		al := k.AffinityAllocator(id)
		f := al.NewFile("data", 256*1024, fs.Contiguous, 0)
		child := func(name string) *proc.Process {
			return proc.New(k, id, name, proc.Seq(
				[]proc.Step{proc.Touch{Pages: 400}},
				proc.Loop(25,
					proc.Read{File: f, Off: 0, N: 64 * 1024},
					proc.Compute{D: 30 * sim.Millisecond},
					proc.Write{File: f, Off: 0, N: 16 * 1024},
				),
			))
		}
		root := proc.New(k, id, "make", []proc.Step{
			proc.Fork{Child: child("cc1")},
			proc.Fork{Child: child("cc2")},
			proc.WaitChildren{},
		})
		k.Spawn(root)
	}
	return k
}

// TestCheckpointDeterministic proves the checkpoint itself is exact:
// two independent boots of the same scenario paused at the same instant
// serialise to identical bytes, even mid-fault with loans outstanding.
func TestCheckpointDeterministic(t *testing.T) {
	const at = 450 * sim.Millisecond
	k1 := faultedScenario(t)
	k1.RunUntil(at)
	s1 := k1.Snapshot()
	k2 := faultedScenario(t)
	k2.RunUntil(at)
	s2 := k2.Snapshot()
	if len(s1) == 0 {
		t.Fatal("empty snapshot")
	}
	if !bytes.Equal(s1, s2) {
		t.Fatalf("checkpoints diverge:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", s1, s2)
	}
}

// TestCheckpointResumeByteIdentical proves restore-by-replay is lossless:
// a run paused at a checkpoint and resumed finishes in exactly the state
// — snapshot bytes and experiment usage table — of a run that never
// paused.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	straight := faultedScenario(t)
	straight.Run()
	wantSnap := straight.Snapshot()
	wantTable := straight.UsageTable().String()

	resumed := faultedScenario(t)
	resumed.RunUntil(250 * sim.Millisecond) // mid-fault checkpoint
	if resumed.Engine().Now() != 250*sim.Millisecond {
		t.Fatalf("paused at %v", resumed.Engine().Now())
	}
	resumed.RunUntil(450 * sim.Millisecond) // a second checkpoint, then finish
	resumed.Run()
	gotSnap := resumed.Snapshot()
	gotTable := resumed.UsageTable().String()

	if !bytes.Equal(wantSnap, gotSnap) {
		t.Errorf("final snapshots diverge:\n--- straight ---\n%s\n--- resumed ---\n%s", wantSnap, gotSnap)
	}
	if wantTable != gotTable {
		t.Errorf("usage tables diverge:\n--- straight ---\n%s\n--- resumed ---\n%s", wantTable, gotTable)
	}
}

// TestSnapshotEvolves is the counter-check: the snapshot must actually
// depend on simulation state, not collapse to a constant.
func TestSnapshotEvolves(t *testing.T) {
	k := faultedScenario(t)
	k.RunUntil(100 * sim.Millisecond)
	s1 := k.Snapshot()
	k.RunUntil(300 * sim.Millisecond)
	s2 := k.Snapshot()
	if bytes.Equal(s1, s2) {
		t.Fatal("snapshot did not change as the simulation advanced")
	}
}

// TestRunUntilBeforeBootPanics mirrors the Run precondition.
func TestRunUntilBeforeBootPanics(t *testing.T) {
	k := New(smallMachine(), core.PIso, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.RunUntil(sim.Second)
}

// TestFaultedScenarioRepeatable runs faultedScenario five times and
// requires byte-identical snapshots every 50 ms to 3 s. Its two SPUs
// each write a file named "data" on their own disk, so a flush that
// ordered same-named files by anything but a stable id would submit
// their clusters in a different order from run to run.
func TestFaultedScenarioRepeatable(t *testing.T) {
	const step, end = 50 * sim.Millisecond, 3 * sim.Second
	var want [][]byte
	for run := 0; run < 5; run++ {
		k := faultedScenario(t)
		i := 0
		for at := step; at <= end; at += step {
			k.RunUntil(at)
			s := k.Snapshot()
			if run == 0 {
				want = append(want, s)
			} else if !bytes.Equal(s, want[i]) {
				t.Fatalf("run %d diverges from run 0 at %v:\n--- run 0 ---\n%s\n--- run %d ---\n%s", run, at, want[i], run, s)
			}
			i++
		}
	}
}
