package disk

import (
	"fmt"
	"sort"
	"sync/atomic"

	"perfiso/internal/core"
	"perfiso/internal/snap"
)

// Audit verifies the disk's accounting invariants and returns the first
// violation found:
//
//   - the time-weighted queue-length and busy trackers agree with the
//     actual queue and service state,
//   - per-SPU request and sector counts sum to the whole-disk totals
//     (merged passengers count on both sides; failed transfers on
//     neither),
//   - every queued request still addresses sectors on the disk,
//   - the lanes are consistent: their counts sum to QueueLen, every
//     queued request sits in exactly one lane (its SPU's) and once in
//     each of the lane's two orders, the FIFO order is strictly by
//     enqueue and the C-SCAN order strictly by (cylinder, sector,
//     enqueue), every cached cylinder matches its sector, and exactly
//     the non-empty lanes are active,
//   - the head is over a real cylinder.
func (d *Disk) Audit() error {
	if got := int(d.Total.QueueLen.Value()); got != d.qlen {
		return fmt.Errorf("disk audit: queue-length tracker reads %d, queue holds %d", got, d.qlen)
	}
	if tracked := d.Total.Busy.Value() != 0; tracked != d.busy {
		return fmt.Errorf("disk audit: busy tracker reads %v, busy flag is %v", tracked, d.busy)
	}
	var reqs, sectors int64
	for _, s := range d.PerSPU {
		reqs += s.Requests
		sectors += s.Sectors
	}
	if reqs != d.Total.Requests {
		return fmt.Errorf("disk audit: per-SPU requests sum to %d, total says %d", reqs, d.Total.Requests)
	}
	if sectors != d.Total.Sectors {
		return fmt.Errorf("disk audit: per-SPU sectors sum to %d, total says %d", sectors, d.Total.Sectors)
	}
	if err := d.auditLanes(); err != nil {
		return err
	}
	if d.headCyl < 0 || d.headCyl >= d.params.Cylinders {
		return fmt.Errorf("disk audit: head over cylinder %d of %d", d.headCyl, d.params.Cylinders)
	}
	return nil
}

// auditEpoch numbers Audit passes across all disks, so the mark a pass
// leaves on a request is never mistaken for another pass's.
var auditEpoch atomic.Uint64

func (d *Disk) auditLanes() error {
	if d.sectorsPerCyl != d.params.SectorsPerCylinder() || d.totalSectors != d.params.TotalSectors() {
		return fmt.Errorf("disk audit: cached geometry (%d sectors/cylinder, %d sectors) disagrees with the parameters", d.sectorsPerCyl, d.totalSectors)
	}
	mark := auditEpoch.Add(1)
	queued, active := 0, 0
	for id, l := range d.lanes {
		if l == nil {
			continue
		}
		if l.id != core.SPUID(id) {
			return fmt.Errorf("disk audit: lane %d filed under spu%d", l.id, id)
		}
		if len(l.fifo) != len(l.byCyl) {
			return fmt.Errorf("disk audit: spu%d lane holds %d in FIFO order, %d in C-SCAN order", id, len(l.fifo), len(l.byCyl))
		}
		if len(l.fifo) > 0 {
			active++
		}
		queued += len(l.fifo)
		for i, r := range l.fifo {
			// One cheap test per request; auditRequest names the law
			// that failed.
			lo := int64(r.cyl) * d.sectorsPerCyl
			if r.SPU != l.id || i > 0 && l.fifo[i-1].seq >= r.seq || r.mark == mark ||
				r.Count <= 0 || r.Sector < lo || r.Sector-lo >= d.sectorsPerCyl ||
				r.Sector+int64(r.Count) > d.totalSectors {
				return d.auditRequest(l, i, mark)
			}
			r.mark = mark
		}
		for i, r := range l.byCyl {
			if r.mark != mark || r.SPU != l.id {
				return fmt.Errorf("disk audit: spu%d lane C-SCAN order holds a request missing from its FIFO", id)
			}
			if i > 0 && !cscanLess(l.byCyl[i-1], r) {
				return fmt.Errorf("disk audit: spu%d lane out of C-SCAN order at %d", id, i)
			}
		}
	}
	if queued != d.qlen {
		return fmt.Errorf("disk audit: lanes hold %d requests, queue length is %d", queued, d.qlen)
	}
	if active != len(d.active) {
		return fmt.Errorf("disk audit: %d non-empty lanes, %d active", active, len(d.active))
	}
	for _, l := range d.active {
		if len(l.fifo) == 0 || int(l.id) >= len(d.lanes) || d.lanes[l.id] != l {
			return fmt.Errorf("disk audit: active lane spu%d is empty or unfiled", l.id)
		}
	}
	return nil
}

// auditRequest reports which law the i-th request of l's FIFO order
// breaks.
func (d *Disk) auditRequest(l *lane, i int, mark uint64) error {
	r := l.fifo[i]
	if r.SPU != l.id {
		return fmt.Errorf("disk audit: spu%d request in spu%d lane", r.SPU, l.id)
	}
	if i > 0 && l.fifo[i-1].seq >= r.seq {
		return fmt.Errorf("disk audit: spu%d lane FIFO out of enqueue order at %d", l.id, i)
	}
	if r.mark == mark {
		return fmt.Errorf("disk audit: request queued twice")
	}
	if err := r.validate(d.totalSectors); err != nil {
		return fmt.Errorf("disk audit: queued request invalid: %w", err)
	}
	c := d.cylinderOf(r.Sector)
	return fmt.Errorf("disk audit: sector %d cached on cylinder %d, lies on %d", r.Sector, r.cyl, c)
}

// Snapshot writes the disk's state for checkpoint comparison: totals,
// mechanical position, and per-SPU transfer counts.
func (d *Disk) Snapshot(enc *snap.Encoder) {
	enc.Section("disk")
	enc.Int("requests", d.Total.Requests)
	enc.Int("sectors", d.Total.Sectors)
	enc.Int("merges", d.Total.Merges)
	enc.Int("failures", d.Total.Failures)
	enc.Int("wait_n", d.Total.Wait.N())
	enc.Float("wait_sum", d.Total.Wait.Sum())
	enc.Int("service_n", d.Total.Service.N())
	enc.Float("service_sum", d.Total.Service.Sum())
	enc.Int("queue", int64(d.qlen))
	enc.Bool("busy", d.busy)
	enc.Int("head_cyl", int64(d.headCyl))
	enc.Int("last_end", d.lastEnd)
	ids := make([]core.SPUID, 0, len(d.PerSPU))
	for id := range d.PerSPU {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := d.PerSPU[id]
		enc.Str(fmt.Sprintf("spu%d", id), fmt.Sprintf("requests=%d sectors=%d", s.Requests, s.Sectors))
	}
}
