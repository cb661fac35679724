package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime/debug"
	"syscall"
	"time"

	"perfiso/internal/core"
	"perfiso/internal/invariant"
	"perfiso/internal/kernel"
	"perfiso/internal/proc"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// Result is one execution of a case: host timings, the modelled
// results, and the layers' public counters read after Run.
type Result struct {
	Setup, Total time.Duration // host CPU time: kernel.New..last Spawn, and New..Run returned
	Err          string        // why the case failed; "" when it did not
	Digest       uint64        // hash of every modelled result below

	End       sim.Time   // simulated completion time
	Responses []sim.Time // simulated response time of each spawned job
	SLOGood   int64      // SLO-tracked requests that met their SLO
	SLOTotal  int64      // SLO-tracked requests observed (shed ones included)

	C Counts
}

// Counts are the layer counters one case leaves behind, read through
// each layer's exported Stat fields and accessors. Every field is a
// float64, so add and digest can walk them all by reflection.
type Counts struct {
	Events         float64
	QueuePushes    float64
	QueueCollide   float64
	QueueMaxDepth  float64
	DiskRequests   float64
	DiskMerges     float64
	DiskQueueMean  float64
	DiskWaitSum    float64 // seconds, summed over requests
	DiskServiceSum float64
	MemEvictions   float64
	MemDirtyWrites float64
	MemWaitqMean   float64
	FSHits         float64
	FSMisses       float64
	FSReadReqs     float64
	FSWriteReqs    float64
	Dispatches     float64
	Loans          float64
	Revocations    float64
	LockAcq        float64
	LockWaitMS     float64
	LatRequests    float64
	Retunes        float64
	Shed           float64
	FaultsInjected float64
	AuditChecks    float64
	Violations     float64
}

// add sums another case's counters into c.
func (c *Counts) add(o Counts) {
	cv, ov := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := 0; i < cv.NumField(); i++ {
		f := cv.Field(i)
		f.SetFloat(f.Float() + ov.Field(i).Float())
	}
}

// spanNames are the public entry points a traced run times, in the
// order a case calls them.
var spanNames = [...]string{"kernel.new", "kernel.boot", "workload.build", "kernel.spawn", "kernel.run"}

const (
	spanNew = iota
	spanBoot
	spanBuild
	spanSpawn
	spanRun
)

// spanTimes accumulates host CPU time per span.
type spanTimes [len(spanNames)]time.Duration

// RunCase executes the case to completion through the kernel's public
// entry points. Panics (a watchdog trip, a horizon overrun, a fail-fast
// audit) are recovered into Result.Err, as are collected audit
// violations and jobs left unfinished. When spans is non-nil each entry
// point's host time is added to it; afterRun, when non-nil, is called
// right after Run returns, while the kernel is still alive.
func RunCase(c Case, spans *spanTimes, afterRun func()) (res Result) {
	var k *kernel.Kernel
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case *invariant.TripError:
				res.Err = "watchdog: " + v.Error()
			case error:
				res.Err = "panic: " + v.Error()
			default:
				res.Err = fmt.Sprintf("panic: %v\n%s", v, debug.Stack())
			}
		}
	}()
	mark := func(i int, since time.Duration) time.Duration {
		now := cpuNow()
		if spans != nil {
			spans[i] += now - since
		}
		return now
	}

	t0 := cpuNow()
	k = kernel.New(c.Machine, c.Scheme, c.Opts)
	ids := make([]core.SPUID, len(c.SPUs))
	for i, s := range c.SPUs {
		ids[i] = k.NewSPU(fmt.Sprintf("spu%d", i), s.Weight).ID()
		if s.Disk >= 0 {
			k.SetAffinity(ids[i], s.Disk)
		}
	}
	t := mark(spanNew, t0)
	k.Boot()
	t = mark(spanBoot, t)

	roots := make([]*proc.Process, 0, len(c.Jobs))
	var servers []*workload.ServerJob
	for j, job := range c.Jobs {
		id, name := ids[job.SPU], fmt.Sprintf("job%d", j)
		var p *proc.Process
		switch jp := job.Params.(type) {
		case workload.OpenServerParams:
			s := workload.OpenServer(k, id, name, jp)
			servers = append(servers, s)
			p = s.Root
		case workload.OceanParams:
			p = workload.Ocean(k, id, name, jp)
		case workload.ComputeParams:
			p = workload.ComputeBound(k, id, name, jp)
		case workload.PmakeParams:
			p = workload.Pmake(k, id, name, jp)
		case workload.CopyParams:
			p = workload.Copy(k, id, name, jp)
		default:
			panic(fmt.Sprintf("perfbench: job %d has params %T", j, job.Params))
		}
		t = mark(spanBuild, t)
		k.Spawn(p)
		t = mark(spanSpawn, t)
		roots = append(roots, p)
	}
	res.Setup = t - t0
	res.C.QueueMaxDepth = float64(k.Engine().QueueStats().MaxDepth)
	res.End = k.Run()
	t = mark(spanRun, t)
	res.Total = t - t0
	if afterRun != nil {
		afterRun()
	}

	for j, p := range roots {
		if p.State() != proc.Exited {
			res.Err = fmt.Sprintf("job%d unfinished at the horizon", j)
			return res
		}
		res.Responses = append(res.Responses, p.ResponseTime())
	}
	for _, s := range servers {
		tr := s.Tracker()
		res.SLOGood += tr.Good()
		res.SLOTotal += tr.Observed()
	}
	res.C.read(k)
	if v := k.Auditor().Violations(); len(v) > 0 {
		res.Err = fmt.Sprintf("%d audit violations, first: %v", len(v), v[0])
	}
	res.Digest = res.digest()
	return res
}

// read fills the counters from the kernel's layers after a run.
func (c *Counts) read(k *kernel.Kernel) {
	eng := k.Engine()
	c.Events = float64(eng.Dispatched())
	qs := eng.QueueStats()
	c.QueuePushes, c.QueueCollide = float64(qs.Pushes), float64(qs.Collisions)
	end := eng.Now()
	used := 0
	for i := 0; i < k.NumDisks(); i++ {
		d := k.Disk(i)
		c.DiskRequests += float64(d.Total.Requests)
		c.DiskMerges += float64(d.Total.Merges)
		c.DiskWaitSum += d.Total.Wait.Sum()
		c.DiskServiceSum += d.Total.Service.Sum()
		if d.Total.Requests > 0 {
			c.DiskQueueMean += d.Total.QueueLen.Average(end)
			used++
		}
	}
	if used > 0 {
		c.DiskQueueMean /= float64(used)
	}
	mm := k.Memory()
	c.MemEvictions, c.MemDirtyWrites = float64(mm.Stat.Evictions), float64(mm.Stat.DirtyWrites)
	c.MemWaitqMean = mm.Stat.WaitQueueLen.Average(end)
	fst := k.FS().Stat
	c.FSHits, c.FSMisses = float64(fst.Hits), float64(fst.Misses)
	c.FSReadReqs, c.FSWriteReqs = float64(fst.ReadReqs), float64(fst.WriteReqs)
	sst := k.Scheduler().Stat
	c.Dispatches, c.Loans, c.Revocations = float64(sst.Dispatches), float64(sst.Loans), float64(sst.Revocations)
	for _, l := range k.Locks().Locks() {
		c.LockAcq += float64(l.Acquisitions)
		c.LockWaitMS += l.WaitTotal.Seconds() * 1e3
	}
	for _, g := range k.Locks().Gates() {
		c.LockAcq += float64(g.Acquisitions)
		c.LockWaitMS += g.WaitTotal.Seconds() * 1e3
	}
	if reg := k.Latency(); reg != nil {
		for _, tr := range reg.Trackers() {
			c.LatRequests += float64(tr.Count())
		}
	}
	if ctl := k.Controller(); ctl != nil {
		c.Retunes, c.Shed = float64(ctl.Stat.Retunes), float64(ctl.Stat.Shed)
	}
	if in := k.Injector(); in != nil {
		c.FaultsInjected = float64(in.Stat.Injected)
	}
	a := k.Auditor()
	c.AuditChecks, c.Violations = float64(a.Checks()), float64(len(a.Violations()))
}

// digest hashes every modelled result of the case: the completion
// time, each job's response time, SLO attainment and the layer counts.
// Host timings are left out, so the digest is a pure function of the
// case and two commits that model the same machine agree on it.
func (r *Result) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(r.End))
	for _, t := range r.Responses {
		put(uint64(t))
	}
	put(uint64(r.SLOGood))
	put(uint64(r.SLOTotal))
	c := reflect.ValueOf(r.C)
	for i := 0; i < c.NumField(); i++ {
		put(math.Float64bits(c.Field(i).Float()))
	}
	return h.Sum64()
}

// cpuNow is the host CPU time the process has used, user plus system,
// over all threads. Every host timing is taken on this clock rather
// than the wall clock: it includes the Go runtime's concurrent GC work,
// and it excludes time the machine spent running other tenants, which
// on a shared host moves wall time by tens of percent within minutes.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err)) // cannot fail with valid arguments
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
