package sched

import (
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// schedRig builds an engine, SPU manager with n user SPUs, and a
// scheduler with numCPUs. It also starts a 10 ms tick driven by the test.
func schedRig(nSPU int, policy core.Policy, numCPUs int) (*sim.Engine, *core.Manager, *Scheduler, []*core.SPU) {
	eng := sim.NewEngine()
	spus := core.NewManager()
	var us []*core.SPU
	for i := 0; i < nSPU; i++ {
		us = append(us, spus.NewSPU("u", 1, policy))
	}
	s := New(eng, spus, numCPUs, Options{})
	s.AssignHomes()
	return eng, spus, s, us
}

// runTicks drives the scheduler tick for the duration of the test run,
// starting from the next tick boundary after the current time (so tests
// may call it repeatedly to continue a simulation).
func runTicks(eng *sim.Engine, s *Scheduler, until sim.Time) {
	first := (eng.Now()/TickPeriod + 1) * TickPeriod
	for at := first; at <= until; at += TickPeriod {
		eng.At(at, "tick", s.Tick)
	}
	eng.RunUntil(until)
}

// burst creates a thread that runs for total CPU time, re-arming itself
// until done, then records its completion time.
func burst(s *Scheduler, spu core.SPUID, name string, total sim.Time, doneAt *sim.Time, eng *sim.Engine) *Thread {
	t := &Thread{Name: name, SPU: spu, Remaining: total}
	t.BurstDone = func() {
		if doneAt != nil {
			*doneAt = eng.Now()
		}
	}
	return t
}

func TestSingleThreadRunsToCompletion(t *testing.T) {
	eng, _, s, us := schedRig(1, core.ShareIdle, 1)
	var done sim.Time
	th := burst(s, us[0].ID(), "t", 100*sim.Millisecond, &done, eng)
	s.Wake(th)
	runTicks(eng, s, sim.Second)
	if done != 100*sim.Millisecond {
		t.Fatalf("done at %v, want 100ms", done)
	}
	if th.CPUTime != 100*sim.Millisecond {
		t.Fatalf("CPUTime = %v", th.CPUTime)
	}
}

func TestTwoThreadsOneCPUTimeshare(t *testing.T) {
	eng, _, s, us := schedRig(1, core.ShareIdle, 1)
	var d1, d2 sim.Time
	t1 := burst(s, us[0].ID(), "t1", 90*sim.Millisecond, &d1, eng)
	t2 := burst(s, us[0].ID(), "t2", 90*sim.Millisecond, &d2, eng)
	s.Wake(t1)
	s.Wake(t2)
	runTicks(eng, s, sim.Second)
	// Both need 90ms of CPU on one CPU: total 180ms, and interleaving
	// means both finish in (120, 180].
	if d1 <= 120*sim.Millisecond || d1 > 180*sim.Millisecond {
		t.Fatalf("d1 = %v", d1)
	}
	if d2 <= 120*sim.Millisecond || d2 > 180*sim.Millisecond {
		t.Fatalf("d2 = %v", d2)
	}
	if s.Stat.Preemptions == 0 {
		t.Fatal("expected slice preemptions")
	}
}

func TestThreadsSpreadAcrossCPUs(t *testing.T) {
	eng, _, s, us := schedRig(1, core.ShareIdle, 4)
	var dones [4]sim.Time
	for i := 0; i < 4; i++ {
		s.Wake(burst(s, us[0].ID(), "t", 50*sim.Millisecond, &dones[i], eng))
	}
	runTicks(eng, s, sim.Second)
	for i, d := range dones {
		if d != 50*sim.Millisecond {
			t.Fatalf("thread %d done at %v, want 50ms (should run in parallel)", i, d)
		}
	}
}

func TestAssignHomesIntegral(t *testing.T) {
	_, _, s, us := schedRig(2, core.ShareIdle, 8)
	homes := s.Homes()
	count := map[core.SPUID]int{}
	for _, h := range homes {
		count[h]++
	}
	if count[us[0].ID()] != 4 || count[us[1].ID()] != 4 {
		t.Fatalf("homes = %v", homes)
	}
	if us[0].Entitled(core.CPU) != 4 {
		t.Fatalf("entitled = %g", us[0].Entitled(core.CPU))
	}
}

func TestIsolationHomeCPUsNotStolenUnderLoad(t *testing.T) {
	// Two SPUs, 2 CPUs each. SPU 1 has 4 CPU-hungry threads; SPU 0 has
	// one thread. SPU 0's thread must run continuously on its own CPUs:
	// its completion time must be unaffected by SPU 1's load.
	eng, _, s, us := schedRig(2, core.ShareIdle, 4)
	var done sim.Time
	light := burst(s, us[0].ID(), "light", 200*sim.Millisecond, &done, eng)
	s.Wake(light)
	for i := 0; i < 4; i++ {
		hungry := &Thread{Name: "hungry", SPU: us[1].ID(), Remaining: 10 * sim.Second}
		s.Wake(hungry)
	}
	runTicks(eng, s, sim.Second)
	if done != 200*sim.Millisecond {
		t.Fatalf("light thread done at %v, want exactly 200ms (isolation)", done)
	}
}

func TestQuoNeverLends(t *testing.T) {
	// SPU 0 idle, SPU 1 overloaded: under ShareNone the idle CPUs stay
	// idle and the overloaded SPU gets only its own 2 CPUs.
	eng, _, s, us := schedRig(2, core.ShareNone, 4)
	var d1, d2, d3, d4 sim.Time
	dones := []*sim.Time{&d1, &d2, &d3, &d4}
	for i := 0; i < 4; i++ {
		s.Wake(burst(s, us[1].ID(), "w", 100*sim.Millisecond, dones[i], eng))
	}
	runTicks(eng, s, sim.Second)
	if s.Stat.Loans != 0 {
		t.Fatalf("loans = %d under fixed quotas", s.Stat.Loans)
	}
	// 4 threads x 100ms on 2 CPUs: last finisher no earlier than 200ms.
	var last sim.Time
	for _, d := range dones {
		if *d > last {
			last = *d
		}
	}
	if last < 200*sim.Millisecond {
		t.Fatalf("work finished at %v; quota must cap at 2 CPUs", last)
	}
}

func TestPIsoLendsIdleCPUs(t *testing.T) {
	// Same load as TestQuoNeverLends but with ShareIdle: the 4 threads
	// use all 4 CPUs and finish in ~100ms.
	eng, _, s, us := schedRig(2, core.ShareIdle, 4)
	var d1, d2, d3, d4 sim.Time
	dones := []*sim.Time{&d1, &d2, &d3, &d4}
	for i := 0; i < 4; i++ {
		s.Wake(burst(s, us[1].ID(), "w", 100*sim.Millisecond, dones[i], eng))
	}
	runTicks(eng, s, sim.Second)
	if s.Stat.Loans == 0 {
		t.Fatal("no CPUs were lent")
	}
	var last sim.Time
	for _, d := range dones {
		if *d > last {
			last = *d
		}
	}
	if last > 150*sim.Millisecond {
		t.Fatalf("work finished at %v; idle CPUs were not shared", last)
	}
}

func TestRevocationWithinOneTick(t *testing.T) {
	// SPU 1 borrows both of SPU 0's CPUs; when SPU 0's threads wake,
	// the loans must be revoked at the next tick (<=10ms).
	eng, _, s, us := schedRig(2, core.ShareIdle, 4)
	for i := 0; i < 4; i++ {
		s.Wake(&Thread{Name: "borrower", SPU: us[1].ID(), Remaining: 10 * sim.Second})
	}
	var started [2]sim.Time
	wakeAt := 100 * sim.Millisecond
	for i := 0; i < 2; i++ {
		i := i
		th := &Thread{Name: "home", SPU: us[0].ID(), Remaining: 50 * sim.Millisecond}
		th.BurstDone = func() { started[i] = eng.Now() }
		eng.At(wakeAt, "wake", func() { s.Wake(th) })
	}
	runTicks(eng, s, sim.Second)
	for i, fin := range started {
		// Finish = wake + <=10ms revocation delay + 50ms of CPU.
		latest := wakeAt + TickPeriod + 50*sim.Millisecond
		if fin == 0 || fin > latest {
			t.Fatalf("home thread %d finished at %v, want <= %v", i, fin, latest)
		}
	}
	if s.Stat.Revocations == 0 {
		t.Fatal("no revocations recorded")
	}
}

func TestIPIRevocationIsImmediate(t *testing.T) {
	eng := sim.NewEngine()
	spus := core.NewManager()
	a := spus.NewSPU("a", 1, core.ShareIdle)
	b := spus.NewSPU("b", 1, core.ShareIdle)
	s := New(eng, spus, 2, Options{IPIRevoke: true})
	s.AssignHomes()
	// b's threads borrow a's CPU.
	s.Wake(&Thread{Name: "b1", SPU: b.ID(), Remaining: 10 * sim.Second})
	s.Wake(&Thread{Name: "b2", SPU: b.ID(), Remaining: 10 * sim.Second})
	var fin sim.Time
	th := &Thread{Name: "a1", SPU: a.ID(), Remaining: 30 * sim.Millisecond}
	th.BurstDone = func() { fin = eng.Now() }
	eng.At(5*sim.Millisecond, "wake", func() { s.Wake(th) })
	runTicks(eng, s, 200*sim.Millisecond)
	if fin != 35*sim.Millisecond {
		t.Fatalf("home thread finished at %v, want exactly 35ms (IPI revocation)", fin)
	}
}

func TestSMPGlobalRunqueue(t *testing.T) {
	// Under ShareAll, 2 SPUs' threads share all CPUs freely: 4 threads
	// from one SPU on 4 CPUs run fully parallel.
	eng, _, s, us := schedRig(2, core.ShareAll, 4)
	var dones [4]sim.Time
	for i := 0; i < 4; i++ {
		s.Wake(burst(s, us[1].ID(), "w", 100*sim.Millisecond, &dones[i], eng))
	}
	runTicks(eng, s, sim.Second)
	for i, d := range dones {
		if d != 100*sim.Millisecond {
			t.Fatalf("thread %d done at %v (no global sharing?)", i, d)
		}
	}
}

func TestKernelThreadsRunAnywhere(t *testing.T) {
	eng, _, s, _ := schedRig(2, core.ShareNone, 2)
	var done sim.Time
	kt := &Thread{Name: "pager", SPU: core.KernelID, Remaining: 10 * sim.Millisecond}
	kt.BurstDone = func() { done = eng.Now() }
	s.Wake(kt)
	runTicks(eng, s, 100*sim.Millisecond)
	if done != 10*sim.Millisecond {
		t.Fatalf("kernel thread done at %v", done)
	}
}

func TestFractionalEntitlementRotor(t *testing.T) {
	// 3 SPUs on 4 CPUs: each entitled to 4/3 CPUs. One CPU is fixed per
	// SPU and the fourth rotates. With all SPUs saturated, CPU time over
	// a long run should be near-equal.
	eng, spus, s, us := schedRig(3, core.ShareIdle, 4)
	_ = spus
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			s.Wake(&Thread{Name: "w", SPU: us[i].ID(), Remaining: 100 * sim.Second})
		}
	}
	runTicks(eng, s, 3*sim.Second)
	var times []float64
	for _, u := range us {
		pt := s.PerSPUTime[u.ID()]
		if pt == nil {
			t.Fatal("an SPU got no CPU time at all")
		}
		times = append(times, pt.Seconds())
	}
	total := times[0] + times[1] + times[2]
	if total < 11.0 { // 4 CPUs * 3s = 12 CPU-seconds, allow startup slack
		t.Fatalf("total CPU time %.2f, machine was idle", total)
	}
	for i, ti := range times {
		if ti < total/3*0.8 || ti > total/3*1.2 {
			t.Fatalf("SPU %d got %.2fs of %.2fs: rotor unfair (%v)", i, ti, total, times)
		}
	}
}

func TestWaitTimeRecorded(t *testing.T) {
	eng, _, s, us := schedRig(1, core.ShareIdle, 1)
	t1 := burst(s, us[0].ID(), "t1", 60*sim.Millisecond, nil, eng)
	t2 := burst(s, us[0].ID(), "t2", 60*sim.Millisecond, nil, eng)
	s.Wake(t1)
	s.Wake(t2)
	runTicks(eng, s, sim.Second)
	if t2.WaitTime.N() == 0 || t2.WaitTime.Sum() == 0 {
		t.Fatal("queued thread recorded no wait time")
	}
}

func TestWakeExitedThreadPanics(t *testing.T) {
	eng, _, s, us := schedRig(1, core.ShareIdle, 1)
	th := burst(s, us[0].ID(), "t", 10*sim.Millisecond, nil, eng)
	s.Wake(th)
	runTicks(eng, s, 100*sim.Millisecond)
	s.Exit(th)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	th.Remaining = sim.Millisecond
	s.Wake(th)
}

func TestWakeWithoutBurstPanics(t *testing.T) {
	_, _, s, us := schedRig(1, core.ShareIdle, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Wake(&Thread{Name: "z", SPU: us[0].ID()})
}

func TestPriorityFavorsLightThreads(t *testing.T) {
	// A thread that has consumed lots of CPU should lose to a fresh one.
	eng, _, s, us := schedRig(1, core.ShareIdle, 1)
	hog := &Thread{Name: "hog", SPU: us[0].ID(), Remaining: sim.Second}
	s.Wake(hog)
	var freshStarted sim.Time
	fresh := &Thread{Name: "fresh", SPU: us[0].ID(), Remaining: 10 * sim.Millisecond}
	fresh.BurstDone = func() { freshStarted = eng.Now() }
	eng.At(300*sim.Millisecond, "wake", func() { s.Wake(fresh) })
	runTicks(eng, s, sim.Second)
	if freshStarted == 0 {
		t.Fatal("fresh thread never ran")
	}
	// The fresh thread has priority ~0 vs the hog's accumulated usage:
	// it should complete within a couple of slices of waking.
	if freshStarted > 300*sim.Millisecond+2*DefaultSlice {
		t.Fatalf("fresh thread done at %v: priority scheduling broken", freshStarted)
	}
}

func TestUtilizationAndIdleCounts(t *testing.T) {
	eng, _, s, us := schedRig(1, core.ShareIdle, 2)
	s.Wake(&Thread{Name: "w", SPU: us[0].ID(), Remaining: 500 * sim.Millisecond})
	if s.IdleCPUs() != 1 {
		t.Fatalf("IdleCPUs = %d", s.IdleCPUs())
	}
	runTicks(eng, s, sim.Second)
	u := s.Utilization()
	if u < 0.2 || u > 0.3 { // 0.5s of work on 2 CPUs over 1s = 0.25
		t.Fatalf("utilization = %g, want ~0.25", u)
	}
	if s.RunqueueLen() != 0 {
		t.Fatalf("runqueue = %d after drain", s.RunqueueLen())
	}
}

// Regression: rotate ranged over the rotorCredit map with a symmetric
// 1e-12 tie-break, which is not transitive. Three near-equal credits
// (each within the tolerance of its neighbour, the outer two not) then
// re-homed the rotating CPU to whichever SPU map iteration order
// favoured, so replays of one run could diverge.
func TestRotateNearEqualCreditsDeterministic(t *testing.T) {
	_, _, s, us := schedRig(3, core.ShareIdle, 4)
	rot := -1
	for i, c := range s.cpus {
		if !c.fixed {
			rot = i
		}
	}
	if rot < 0 || len(s.rotorIDs) != 3 {
		t.Fatalf("rig has rotating CPU %d and %d claimants, want one and 3", rot, len(s.rotorIDs))
	}
	var first core.SPUID = -1
	for i := 0; i < 200; i++ {
		for k, u := range us {
			s.rotorCredit[u.ID()] = 1 + float64(k)*0.6e-12 - s.rotorFrac[u.ID()]
		}
		s.rotate()
		home := s.cpus[rot].home
		if first == -1 {
			first = home
		}
		if home != first {
			t.Fatalf("rotation %d re-homed the CPU to spu%d, earlier ones to spu%d", i, home, first)
		}
	}
}
