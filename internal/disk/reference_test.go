package disk

import (
	"perfiso/internal/core"
	"perfiso/internal/profile"
	"perfiso/internal/sim"
)

// This file keeps the linear-scan disk queue the lanes replaced, as the
// reference the differential tests (TestDiskPickMatchesReference,
// FuzzDiskPick) check the lane-indexed dispatch against. The pick
// functions are the original Pos, Iso, PIso and cscanBest code: one
// flat FIFO queue, rescanned on every dispatch, CylinderOf per
// candidate. refDisk carries just the mechanics they need; the service
// time model is the production Params.

// refDisk is a disk with the original flat queue.
type refDisk struct {
	eng     *sim.Engine
	params  Params
	policy  Scheduler // which reference pick to run
	usage   *usageTable
	Merge   bool
	Profile *profile.Profiler

	queue          []*Request
	busy           bool
	headCyl        int
	lastEnd        int64
	lastXferFinish sim.Time
	failProb       float64
	failRNG        *sim.RNG

	merges, failures int64
}

func newRefDisk(eng *sim.Engine, p Params, policy Scheduler, halfLife sim.Time) *refDisk {
	return &refDisk{eng: eng, params: p, policy: policy, usage: newUsageTable(halfLife)}
}

func (t *usageTable) meanRelative(now sim.Time, ids []core.SPUID) float64 {
	return t.MeanRelative(now, ids)
}

func (d *refDisk) SetShare(id core.SPUID, w float64) { d.usage.setShare(id, w) }

func (d *refDisk) SetFault(prob float64, rng *sim.RNG) { d.failProb, d.failRNG = prob, rng }

func (d *refDisk) QueuedFor(id core.SPUID) int {
	n := 0
	for _, r := range d.queue {
		if r.SPU == id {
			n++
		}
	}
	return n
}

func (d *refDisk) pick() int {
	switch p := d.policy.(type) {
	case *Pos:
		return refPos(d)
	case *Iso:
		return refIso(d)
	case *PIso:
		return refPIso(p, d)
	}
	panic("refDisk: unknown policy " + d.policy.Name())
}

func (d *refDisk) Submit(r *Request) {
	r.Submitted = d.eng.Now()
	r.Failed = false
	if d.Merge && d.tryMerge(r) {
		return
	}
	d.queue = append(d.queue, r)
	if !d.busy {
		d.startNext()
	}
}

func (d *refDisk) tryMerge(r *Request) bool {
	if len(r.Charges) > 0 {
		return false
	}
	for _, q := range d.queue {
		if q.Kind != r.Kind || q.SPU != r.SPU || len(q.Charges) > 0 {
			continue
		}
		if q.Count+r.Count > MaxMergeSectors {
			continue
		}
		var merged bool
		switch {
		case q.Sector+int64(q.Count) == r.Sector:
			q.Count += r.Count
			merged = true
		case r.Sector+int64(r.Count) == q.Sector:
			q.Sector = r.Sector
			q.Count += r.Count
			merged = true
		}
		if !merged {
			continue
		}
		d.merges++
		done, prev := r.Done, q.Done
		fired := false
		q.Done = func(qq *Request) {
			if prev != nil {
				prev(qq)
			}
			if fired {
				return
			}
			fired = true
			r.Started, r.Finished = qq.Started, qq.Finished
			r.SeekTime, r.RotTime = qq.SeekTime, qq.RotTime
			r.Failed = qq.Failed
			if done != nil {
				done(r)
			}
		}
		return true
	}
	return false
}

func (d *refDisk) startNext() {
	if len(d.queue) == 0 {
		d.busy = false
		return
	}
	idx := d.pick()
	r := d.queue[idx]
	d.queue = append(d.queue[:idx], d.queue[idx+1:]...)
	now := d.eng.Now()
	d.busy = true
	r.Started = now
	seek := d.params.SeekTime(d.headCyl, d.params.CylinderOf(r.Sector))
	r.SeekTime = seek
	settled := now + d.params.Overhead + seek
	rot := d.params.RotationalDelay(settled, r.Sector)
	if r.Sector == d.lastEnd && now-d.lastXferFinish <= d.params.RotationTime() {
		rot = 0
	}
	r.RotTime = rot
	total := d.params.Overhead + seek + rot + d.params.TransferTime(r.Sector, r.Count)
	if d.failProb > 0 && d.failRNG != nil && d.failRNG.Float64() < d.failProb {
		r.Failed = true
	}
	if d.Profile != nil {
		for _, q := range d.queue {
			if q.SPU != r.SPU {
				d.Profile.AddTheft(q.SPU, r.SPU, profile.Disk, total)
				q.StolenBy = r.SPU
			}
		}
	}
	d.eng.CallAfter(total, "ref.complete", func() { d.complete(r) })
	d.headCyl = d.params.CylinderOf(r.Sector + int64(r.Count) - 1)
	d.lastEnd = r.Sector + int64(r.Count)
	d.lastXferFinish = now + total
}

func (d *refDisk) complete(r *Request) {
	now := d.eng.Now()
	r.Finished = now
	if len(r.Charges) > 0 {
		for _, c := range r.Charges {
			d.usage.charge(now, c.SPU, c.Sectors)
		}
	} else {
		d.usage.charge(now, r.SPU, r.Count)
	}
	if r.Failed {
		d.failures++
	}
	done := r.Done
	d.startNext()
	if done != nil {
		done(r)
	}
}

// cscanBest returns the queue index that C-SCAN would pick from the given
// candidate indices: the lowest starting cylinder at or ahead of the
// current head position in the upward sweep, wrapping to the lowest
// cylinder when the sweep passes the end (§3.3). Ties break by sector,
// then FIFO.
func cscanBest(d *refDisk, candidates []int) int {
	best := -1
	bestWrap := -1
	better := func(cur, cand int) bool {
		a, b := d.queue[cand], d.queue[cur]
		ca, cb := d.params.CylinderOf(a.Sector), d.params.CylinderOf(b.Sector)
		if ca != cb {
			return ca < cb
		}
		if a.Sector != b.Sector {
			return a.Sector < b.Sector
		}
		return cand < cur // FIFO: earlier queue position first
	}
	for _, i := range candidates {
		cyl := d.params.CylinderOf(d.queue[i].Sector)
		if cyl >= d.headCyl {
			if best == -1 || better(best, i) {
				best = i
			}
		} else {
			if bestWrap == -1 || better(bestWrap, i) {
				bestWrap = i
			}
		}
	}
	if best != -1 {
		return best
	}
	return bestWrap
}

// userCandidates partitions the queue into user-SPU requests and
// shared/kernel requests, returning user indices and shared indices.
// Shared-SPU requests have the lowest priority (§3.3); kernel requests
// are treated like user requests (the kernel SPU is never restricted).
func userCandidates(d *refDisk) (user, shared []int) {
	for i, r := range d.queue {
		if r.SPU == core.SharedID {
			shared = append(shared, i)
		} else {
			user = append(user, i)
		}
	}
	return user, shared
}

func refPos(d *refDisk) int {
	all := make([]int, len(d.queue))
	for i := range d.queue {
		all[i] = i
	}
	return cscanBest(d, all)
}

func refIso(d *refDisk) int {
	user, shared := userCandidates(d)
	cands := user
	if len(cands) == 0 {
		cands = shared
	}
	// Lowest relative usage goes first; FIFO within the winning SPU.
	best := -1
	var bestRel float64
	for _, i := range cands {
		rel := d.usage.relative(d.eng.Now(), d.queue[i].SPU)
		if best == -1 || rel < bestRel-1e-12 {
			best, bestRel = i, rel
		}
	}
	// best is the earliest-queued request of the least-served SPU because
	// queue order is FIFO and we only replace on strictly smaller usage.
	return best
}

func refPIso(p *PIso, d *refDisk) int {
	user, shared := userCandidates(d)
	if len(user) == 0 {
		return cscanBest(d, shared)
	}
	now := d.eng.Now()
	// Fairness criterion over the SPUs that currently have requests
	// queued. At least one active SPU is at or below the mean, so the
	// passing set is never empty for Threshold >= 0.
	var active []core.SPUID
	seen := make(map[core.SPUID]bool)
	for _, i := range user {
		id := d.queue[i].SPU
		if !seen[id] {
			seen[id] = true
			active = append(active, id)
		}
	}
	mean := d.usage.meanRelative(now, active)
	var passing []int
	for _, i := range user {
		if d.usage.relative(now, d.queue[i].SPU) <= mean+p.Threshold {
			passing = append(passing, i)
		}
	}
	if len(passing) == 0 { // defensive; cannot happen with Threshold >= 0
		passing = user
	}
	return cscanBest(d, passing)
}
