package main

import "time"

// The host probe measures how fast the host runs code right now. On a
// shared VM the CPU time a fixed amount of work takes moves by 20% or
// more over minutes as other tenants come and go (process CPU time
// included: they contend for the core, its caches and its clock), and
// the simulator and any other code slow down together. Timed passes run
// the probe between cases, about every probeEvery of case time, and the
// end-to-end host times are scaled by probeRef over the run's median
// probe time: they read as if the host ran the probe in probeRef.
//
// The probe is written here and shares no code with the simulator, so
// a change to the simulator cannot move it. It is shaped like the
// simulator's hot loop, a binary heap of timestamped events and a map of
// per-entity totals, but its data is a few dozen KB, so it runs from the
// CPU's caches and the simulator's own memory footprint barely moves
// it. It allocates nothing after its first call, so it adds nothing to
// allocs_per_case and no work to the garbage collector.

// probeRef is the probe's median CPU time, run between cases, on the
// 2-vCPU Intel Xeon VM the benchmark was tuned on.
const probeRef = 6500 * time.Microsecond

// probeEvery is the case CPU time between two probes in a timed pass:
// short enough that every run takes dozens of probes, long enough that
// they add only a few percent to a pass.
const probeEvery = 250 * time.Millisecond

const (
	probeEvents   = 40000 // events one probe runs
	probeQueue    = 512   // events pending at any time
	probeEntities = 1024  // map keys
)

type probeEvent struct {
	at  float64
	seq int32
	ent int32
}

func (e probeEvent) before(o probeEvent) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// probeState is allocated on the first call and reused after it.
var probeState struct {
	q     []probeEvent
	total map[int32]float64
}

// probe runs the fixed event loop and returns the host CPU time it took.
func probe() time.Duration {
	st := &probeState
	if st.total == nil {
		st.q = make([]probeEvent, 0, probeQueue+1)
		st.total = make(map[int32]float64, probeEntities)
		for k := int32(0); k < probeEntities; k++ {
			st.total[k] = 0
		}
	}
	t0 := cpuNow()
	q := st.q[:0]
	var now float64
	var seq int32
	rng := uint64(88172645463325252)
	rand := func() uint64 { // xorshift64
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	push := func(e probeEvent) {
		q = append(q, e)
		for i := len(q) - 1; i > 0; {
			p := (i - 1) / 2
			if !q[i].before(q[p]) {
				break
			}
			q[i], q[p] = q[p], q[i]
			i = p
		}
	}
	pop := func() probeEvent {
		top, n := q[0], len(q)-1
		q[0], q = q[n], q[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(q[c]) {
				c++
			}
			if !q[c].before(q[i]) {
				break
			}
			q[i], q[c] = q[c], q[i]
			i = c
		}
		return top
	}
	schedule := func() {
		r := rand()
		seq++
		push(probeEvent{at: now + float64(r>>40)/(1<<24), seq: seq, ent: int32(r % probeEntities)})
	}
	for i := 0; i < probeQueue; i++ {
		schedule()
	}
	for n := 0; n < probeEvents; n++ {
		e := pop()
		now = e.at
		st.total[e.ent] += now
		schedule()
	}
	st.q = q
	return cpuNow() - t0
}
