package disk

import (
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/profile"
	"perfiso/internal/sim"
)

// steadyDisk queues depth requests spread over three user SPUs and the
// shared SPU, each of which resubmits itself at a new sector when it
// completes, so every completion leaves the queue at the same depth.
// Each step of the returned function serves one request.
func steadyDisk(sched Scheduler, depth int, prof bool) (*Disk, func()) {
	eng := sim.NewEngine()
	d := New(eng, HP97560(), sched, 0)
	if prof {
		d.Profile = profile.New(eng, 64)
	}
	total := d.Params().TotalSectors()
	for i := 0; i < depth; i++ {
		spu := core.FirstUserID + core.SPUID(i%3)
		if i%4 == 3 {
			spu = core.SharedID
		}
		r := &Request{Kind: Read, Sector: int64(i) * 7919 % (total - 64), Count: 16, SPU: spu}
		r.Done = func(r *Request) {
			r.Sector = (r.Sector + 104729) % (total - 64)
			d.Submit(r)
		}
		d.Submit(r)
	}
	step := func() {
		if !eng.Step() {
			panic("disk went idle")
		}
	}
	// Warm up: let the lanes, meters and statistics reach their working
	// sizes.
	for i := 0; i < 4*depth; i++ {
		step()
	}
	return d, step
}

// TestDiskDispatchZeroAlloc pins the dispatch path at zero allocations:
// a steady-state Submit→pick→complete cycle at queue depth 1,000
// allocates nothing per request under every policy when no profiler is
// attached.
func TestDiskDispatchZeroAlloc(t *testing.T) {
	for _, sched := range []Scheduler{NewPos(), NewIso(), NewPIso(0)} {
		d, step := steadyDisk(sched, 1000, false)
		if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
			t.Errorf("%s: %v allocations per request at depth 1000, want 0", sched.Name(), allocs)
		}
		if d.QueueLen() != 999 {
			t.Errorf("%s: queue depth %d, want 999 (one in service)", sched.Name(), d.QueueLen())
		}
	}
}

// TestDiskDispatchProfiledAllocsFlat checks that with the profiler on,
// the blame pass costs no allocation per queued request: allocations
// per served request are the same at depth 10 and depth 1,000.
func TestDiskDispatchProfiledAllocsFlat(t *testing.T) {
	for _, sched := range []Scheduler{NewPos(), NewIso(), NewPIso(0)} {
		_, shallowStep := steadyDisk(sched, 10, true)
		_, deepStep := steadyDisk(sched, 1000, true)
		shallow := testing.AllocsPerRun(500, shallowStep)
		deep := testing.AllocsPerRun(500, deepStep)
		if deep > shallow {
			t.Errorf("%s: %v allocations per request at depth 1000, %v at depth 10", sched.Name(), deep, shallow)
		}
	}
}
