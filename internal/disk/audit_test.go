package disk

import (
	"strings"
	"testing"

	"perfiso/internal/core"
)

// auditRig returns a busy disk with requests of two user SPUs and the
// shared SPU queued behind the one in service.
func auditRig(t *testing.T) *Disk {
	t.Helper()
	_, d := newTestDisk(NewPIso(0))
	for i, spu := range []core.SPUID{spuA, spuB, spuA, core.SharedID, spuB, spuA, spuB} {
		d.Submit(req(spu, int64(i)*50000+1000, 8, nil))
	}
	if err := d.Audit(); err != nil {
		t.Fatalf("healthy disk fails audit: %v", err)
	}
	return d
}

// Negative control: Audit must catch every way the lanes can fall out
// of step with each other and with the queue.
func TestAuditCatchesCorruptLanes(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(d *Disk)
		want    string
	}{
		{"C-SCAN order swapped", func(d *Disk) {
			l := d.lanes[spuA]
			l.byCyl[0], l.byCyl[1] = l.byCyl[1], l.byCyl[0]
		}, "C-SCAN order"},
		{"FIFO order swapped", func(d *Disk) {
			l := d.lanes[spuB]
			l.fifo[0], l.fifo[1] = l.fifo[1], l.fifo[0]
		}, "enqueue order"},
		{"stale cached cylinder", func(d *Disk) { d.lanes[spuA].fifo[1].cyl++ }, "cached on cylinder"},
		{"request dropped from one order", func(d *Disk) {
			l := d.lanes[spuB]
			l.byCyl = l.byCyl[1:]
		}, "in FIFO order"},
		{"request filed in a second lane", func(d *Disk) {
			r := d.lanes[spuA].fifo[0]
			l := d.lanes[spuB]
			l.fifo = append(l.fifo, r)
			l.insertSorted(r)
			d.qlen++
			d.Total.QueueLen.Set(d.eng.Now(), float64(d.qlen))
		}, "in spu"},
		{"request twice in one lane", func(d *Disk) {
			l := d.lanes[spuA]
			l.fifo[1] = l.fifo[0]
			l.byCyl = append(l.byCyl[:0], l.fifo...)
		}, "disk audit"},
		{"counts disagree with queue length", func(d *Disk) {
			d.qlen++
			d.Total.QueueLen.Set(d.eng.Now(), float64(d.qlen))
		}, "lanes hold"},
		{"tracker disagrees with queue length", func(d *Disk) {
			d.Total.QueueLen.Set(d.eng.Now(), float64(d.qlen+1))
		}, "tracker"},
		{"empty lane left active", func(d *Disk) {
			l := d.lanes[core.SharedID]
			l.fifo, l.byCyl = l.fifo[:0], l.byCyl[:0]
			d.qlen--
			d.Total.QueueLen.Set(d.eng.Now(), float64(d.qlen))
		}, "active"},
		{"request beyond the disk", func(d *Disk) { d.lanes[spuB].fifo[0].Count = 1 << 30 }, "outside disk"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := auditRig(t)
			tc.corrupt(d)
			err := d.Audit()
			if err == nil {
				t.Fatal("Audit passed a corrupted queue")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Audit error %q does not mention %q", err, tc.want)
			}
		})
	}
}
