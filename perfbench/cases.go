package main

import (
	"fmt"

	"perfiso/internal/control"
	"perfiso/internal/core"
	"perfiso/internal/fault"
	"perfiso/internal/kernel"
	"perfiso/internal/latency"
	"perfiso/internal/machine"
	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// Case is one generated simulation: a machine, a scheme, a set of SPUs
// and the jobs they run. It is plain data, so two cases can be compared
// with reflect.DeepEqual and a case prints as a one-line description.
type Case struct {
	Workload string
	Index    int
	Machine  machine.Config
	Scheme   core.Scheme
	Opts     kernel.Options
	SPUs     []SPU
	Jobs     []Job
}

// SPU is one generated SPU: its weight and, when Disk >= 0, its pinned
// disk affinity (swap and default file placement).
type SPU struct {
	Weight float64
	Disk   int
}

// Job is one process tree spawned into an SPU. Params is one of
// workload.OpenServerParams, OceanParams, ComputeParams, PmakeParams
// or CopyParams and selects the constructor.
type Job struct {
	SPU    int
	Params any
}

// String renders the case in one line for failure reports.
func (c Case) String() string {
	return fmt.Sprintf("%s#%d %s/%s disk=%s merge=%v control=%v spus=%d jobs=%d faults=%q",
		c.Workload, c.Index, c.Machine.Name, c.Scheme, c.Opts.DiskSched, c.Opts.DiskMerge,
		c.Opts.Control.Enabled, len(c.SPUs), len(c.Jobs), c.Opts.Faults.String())
}

// workloads are the benchmark's workloads. Each one loads a different
// set of simulator layers, so an optimisation of one layer has a
// workload that exercises it and one that bypasses it. cases is how
// many cases a run generates; every pass runs all of them. The counts
// are multiples of each generator's number of structures, and large
// enough that a run's work averages over many shapes while a 30 s run
// still holds several passes to take medians over (a pass is about 1 s
// of host CPU for tenants, 3 s for diskstream and 7 s for mempressure
// on a 2-vCPU Xeon).
var workloads = []struct {
	name  string
	cases int
	gen   func(rng *sim.RNG, st *strata, i, n int) Case
}{
	{"tenants", 64, genTenants},
	{"mempressure", 9, genMemPressure},
	{"diskstream", 48, genDiskStream},
}

// Generate derives the cases of one workload from the seed. The same
// seed always gives the same cases. Structural choices (scheme, disk
// policy, SPU count) cycle with the case index, so every seed has the
// same structure; sizes are stratified within and across structures
// (strata);
// everything else is drawn from the seed. The cases differ from seed
// to seed while a run's total work stays nearly the same, which keeps
// host-time figures comparable across seeds.
func Generate(workload string, seed uint64) ([]Case, error) {
	for _, w := range workloads {
		if w.name != workload {
			continue
		}
		st := newStrata(sim.NewRNG(seed*0x9e3779b97f4a7c15 + uint64(len(workload))))
		cases := make([]Case, w.cases)
		for i := range cases {
			rng := sim.NewRNG(seed ^ (uint64(i)+1)*0xbf58476d1ce4e5b9)
			c := w.gen(rng, st, i, w.cases)
			c.Workload, c.Index = workload, i
			c.Opts.Seed = rng.Uint64() | 1
			c.Opts.AuditCollect = true
			c.Opts.Profiled = true
			cases[i] = c
		}
		return cases, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tenants, mempressure or diskstream)", workload)
}

// strata hands out Latin-hypercube draws. Cases that share a group
// (the structural choices that cycle with the case index, such as the
// scheme) are stratified among themselves: the k-th of n cases of group
// g lands in slice perm[k] of n equal slices of [0,1), with perm drawn
// once per (dimension, group). The groups are stratified within each
// slice too: group g's case takes sub-slice perm'[g] of that slice's
// groups equal sub-slices, with perm' drawn once per (dimension, slice).
// Every seed thus gives each structure the same spread of sizes, and
// the whole workload one case in each of the n*groups sub-slices, so
// host-time totals and percentiles barely move with the seed.
type strata struct {
	rng   *sim.RNG
	perms map[string][]int
}

func newStrata(rng *sim.RNG) *strata {
	return &strata{rng: rng, perms: make(map[string][]int)}
}

// u returns the draw in [0,1) for case k of the n cases of group g, of
// groups groups, in dimension dim.
func (s *strata) u(dim string, g, k, groups, n int) float64 {
	slice := s.perm(fmt.Sprint(dim, "/", g), n)[k]
	sub := s.perm(fmt.Sprint(dim, "/slice", slice), groups)[g]
	return (float64(slice) + (float64(sub)+s.rng.Float64())/float64(groups)) / float64(n)
}

// perm returns the permutation of n kept under key, drawing it on first
// use.
func (s *strata) perm(key string, n int) []int {
	p, ok := s.perms[key]
	if !ok {
		p = s.rng.Perm(n)
		s.perms[key] = p
	}
	return p
}

func lerp(lo, hi, u float64) float64 { return lo + (hi-lo)*u }

func lerpT(lo, hi sim.Time, u float64) sim.Time { return lo + sim.Time(float64(hi-lo)*u) }

// tenantSchemes cycles through the four CPU-sharing configurations the
// tenants workload compares: SMP, fixed quotas, static PIso and adaptive
// PIso with the SLO controller on.
var tenantSchemes = []struct {
	scheme  core.Scheme
	control bool
}{{core.SMP, false}, {core.Quo, false}, {core.PIso, false}, {core.PIso, true}}

// genTenants builds a CPU-isolation case (8 CPUs, 64 MB): 3-6 SPUs of
// seeded weights, about half of them open-arrival services with SLOs
// (Poisson, bursty or diurnal arrivals) and the rest batch SPUs running
// Ocean gangs or compute jobs, with working sets far below any SPU's
// memory share. The shape keeps sim, sched, lock, proc, latency and
// control busy while the disks and the page reclaimer stay idle, so it
// is the bypass workload for any disk or memory optimisation. Every
// third case adds a seeded CPU-slow fault plan.
func genTenants(rng *sim.RNG, st *strata, i, n int) Case {
	sc := tenantSchemes[i%len(tenantSchemes)]
	c := Case{
		Machine: machine.CPUIsolation(),
		Scheme:  sc.scheme,
		Opts: kernel.Options{
			LatencyWindow: 500 * sim.Millisecond,
			IPIRevoke:     sc.scheme == core.PIso && rng.Intn(2) == 0,
			Horizon:       120 * sim.Second,
			Control:       control.Config{Enabled: sc.control},
		},
	}
	nSPU := 3 + (i/len(tenantSchemes))%4
	const structures = 4 * 4 // scheme x SPU count
	g, k, per := i%structures, i/structures, n/structures
	u := func(dim string, j int) float64 { return st.u(fmt.Sprint("tenants.", dim, j), g, k, structures, per) }
	servers := (nSPU + 1) / 2
	for s := 0; s < nSPU; s++ {
		c.SPUs = append(c.SPUs, SPU{Weight: float64(1 + rng.Intn(3)), Disk: -1})
	}
	for s := 0; s < servers; s++ {
		p := workload.OpenServerParams{
			Requests:      int(lerp(500, 1000, u("requests", s))),
			Mean:          lerpT(6*sim.Millisecond, 12*sim.Millisecond, u("mean", s)),
			Pattern:       []workload.ArrivalPattern{workload.Poisson, workload.Bursty, workload.Diurnal}[rng.Intn(3)],
			Service:       lerpT(2*sim.Millisecond, 6*sim.Millisecond, u("service", s)),
			ServiceJitter: sim.Millisecond,
			Seed:          rng.Uint64() | 1,
			SLO: latency.SLO{
				Threshold: lerpT(20*sim.Millisecond, 50*sim.Millisecond, rng.Float64()),
				Target:    0.95 + 0.04*rng.Float64(),
			},
		}
		c.Jobs = append(c.Jobs, Job{SPU: s, Params: p})
	}
	// Batch SPUs alternate between an Ocean gang and a few compute jobs.
	for s := servers; s < nSPU; s++ {
		size := u("batch", s)
		if (s+k)%2 == 0 {
			c.Jobs = append(c.Jobs, Job{SPU: s, Params: workload.OceanParams{
				Procs:      2 + int(3*u("procs", s)),
				Iterations: int(lerp(20, 40, size)),
				Grain:      lerpT(20*sim.Millisecond, 60*sim.Millisecond, rng.Float64()),
				Imbalance:  500 * sim.Microsecond,
				WSSPages:   50 + rng.Intn(100),
			}})
			continue
		}
		for j := 0; j < 2+int(3*u("procs", s)); j++ {
			c.Jobs = append(c.Jobs, Job{SPU: s, Params: workload.ComputeParams{
				Total:       lerpT(sim.Second, 3*sim.Second, size),
				Chunk:       lerpT(40*sim.Millisecond, 100*sim.Millisecond, u("chunk", s)),
				WSSPages:    50 + rng.Intn(100),
				StartupRead: int64(rng.Intn(2)) * 128 * 1024,
			}})
		}
	}
	if i%3 == 0 {
		c.Opts.Faults = cpuFaultPlan(rng, c.Machine.CPUs)
	}
	return c
}

// cpuFaultPlan schedules one or two transient CPU-slow faults in the
// first two simulated seconds.
//
// CPU-offline faults are left out because the scheduler is not correct
// under them yet, and the benchmark only runs cases the simulator gets
// right. With a CPU offline, an SMP case can trip the auditor's
// revocation-bound law, and other cases replay with different counters than their first run, because
// sched.(*Scheduler).rotate picks each rotating CPU's home by ranging
// over a map with a tie-break that is not transitive. Once both are
// fixed, CPU-offline faults belong back in this plan.
func cpuFaultPlan(rng *sim.RNG, cpus int) *fault.Plan {
	var p fault.Plan
	for j := 0; j < 1+rng.Intn(2); j++ {
		p.Events = append(p.Events, fault.Event{
			Kind:     fault.CPUSlow,
			Target:   rng.Intn(cpus),
			At:       lerpT(0, 2*sim.Second, rng.Float64()),
			Duration: lerpT(200*sim.Millisecond, sim.Second, rng.Float64()),
			Severity: 0.2 + 0.6*rng.Float64(),
		})
	}
	return &p
}

// diskPolicies are the §4.5 disk scheduling policies the two disk-bound
// workloads draw from.
var diskPolicies = []string{"Pos", "Iso", "PIso"}

// genMemPressure builds a memory-isolation case (4 CPUs, 16 MB, 2
// disks): two SPUs, one running two MemPmake-style jobs as in Figure
// 7's unbalanced configuration, with a total working set of 1.2-2x
// memory, under a PIso kernel whose disk policy cycles through Pos, Iso
// and PIso. Random swap-in and dirty page-out drive the disk queues
// hundreds deep, which is where the O(queue) disk pick and the
// profiler's theft ledger show in host time.
func genMemPressure(rng *sim.RNG, st *strata, i, n int) Case {
	c := Case{
		Machine: machine.MemoryIsolation(),
		Scheme:  core.PIso,
		Opts: kernel.Options{
			DiskSched: diskPolicies[i%len(diskPolicies)],
			Horizon:   600 * sim.Second,
		},
	}
	c.SPUs = []SPU{{Weight: 1, Disk: 0}, {Weight: 1, Disk: 1}}
	// Target total working set as a multiple of memory, spread over
	// three jobs, the second SPU running two of them.
	policies := len(diskPolicies)
	ratio := lerp(1.2, 2.0, st.u("mem.ratio", i%policies, i/policies, policies, n/policies))
	const jobs = 3
	base := workload.MemPmake()
	perProc := int(ratio * float64(c.Machine.Pages()) / float64(jobs*base.Parallel))
	for j := 0; j < jobs; j++ {
		p := base
		p.WSSPages = perProc
		p.FilesPerCompile = 1
		p.ComputePerFile = lerpT(100*sim.Millisecond, 300*sim.Millisecond, rng.Float64())
		c.Jobs = append(c.Jobs, Job{SPU: min(j, 1), Params: p})
	}
	return c
}

// genDiskStream builds a disk-isolation case (2 CPUs, 44 MB, one HP
// 97560): a 1-24 MB copy stream beside one or two DiskPmake jobs on the
// shared disk. Copy sizes straddle the buffer cache (some fit, some do
// not); the disk policy (Pos, Iso, PIso), request merging and the
// number of pmake jobs cycle with the case index. The disk serves sequential read-ahead and delayed-write
// flushes on shallow queues, so the same disk layer is used very
// differently from mempressure, and fs and mem do most of the host work.
func genDiskStream(rng *sim.RNG, st *strata, i, n int) Case {
	c := Case{
		Machine: machine.DiskIsolation(),
		Scheme:  core.PIso,
		Opts: kernel.Options{
			DiskSched: diskPolicies[i%len(diskPolicies)],
			DiskMerge: (i/len(diskPolicies))%2 == 1,
			Horizon:   600 * sim.Second,
		},
	}
	c.SPUs = []SPU{{Weight: 1, Disk: 0}, {Weight: 1, Disk: 0}}
	const structures = 3 * 2 * 2 // policy x merging x pmake count
	g, k, per := i%structures, i/structures, n/structures
	copyMB := lerp(1, 24, st.u("disk.copy", g, k, structures, per))
	c.Jobs = append(c.Jobs, Job{SPU: 1, Params: workload.DefaultCopy(int64(copyMB * (1 << 20)))})
	for j := 0; j < 1+(i/6)%2; j++ {
		p := workload.DiskPmake()
		p.FilesPerCompile = 3 + int(4*st.u(fmt.Sprint("disk.files", j), g, k, structures, per))
		p.ComputePerFile = lerpT(100*sim.Millisecond, 300*sim.Millisecond, rng.Float64())
		c.Jobs = append(c.Jobs, Job{SPU: 0, Params: p})
	}
	return c
}
