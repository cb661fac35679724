package disk

import "perfiso/internal/core"

// Scheduler selects the next request to service from a disk's queue.
// The three implementations correspond to the policies of §4.5.
type Scheduler interface {
	// Name returns the policy name as used in the paper's tables.
	Name() string
	// pick returns the next queued request to service. It is only
	// called with a non-empty queue.
	pick(d *Disk) *Request
}

// users fills d.order with the lanes of user SPUs that have requests
// queued, in the order their SPUs first appear in the queue: by the seq
// of each lane's oldest request. Shared-SPU requests have the lowest
// priority (§3.3) and are left out; kernel requests are treated like
// user requests (the kernel SPU is never restricted).
func (d *Disk) users() []*lane {
	o := d.order[:0]
	for _, l := range d.active {
		if l.id == core.SharedID {
			continue
		}
		o = append(o, l)
		for i := len(o) - 1; i > 0 && o[i].fifo[0].seq < o[i-1].fifo[0].seq; i-- {
			o[i], o[i-1] = o[i-1], o[i]
		}
	}
	d.order = o
	return o
}

// cscan returns the request C-SCAN would pick among the active lanes
// (only the passing user lanes if passingOnly is set): the lowest
// starting cylinder at or ahead of the current head position in the
// upward sweep, wrapping to the lowest cylinder when the sweep passes
// the end (§3.3). Ties break by sector, then FIFO.
func (d *Disk) cscan(passingOnly bool) *Request {
	var best *Request
	bestAhead := false
	for _, l := range d.active {
		if passingOnly && (l.id == core.SharedID || !l.pass) {
			continue
		}
		r, ahead := l.next(d.headCyl)
		if best == nil || ahead && !bestAhead || ahead == bestAhead && cscanLess(r, best) {
			best, bestAhead = r, ahead
		}
	}
	return best
}

// Pos is IRIX 5.3's standard scheduling: head position only, via C-SCAN.
// The requesting SPU plays no part, so a long contiguous stream can lock
// out other SPUs entirely.
type Pos struct{}

// NewPos returns the position-only C-SCAN scheduler.
func NewPos() *Pos { return &Pos{} }

// Name implements Scheduler.
func (*Pos) Name() string { return "Pos" }

func (*Pos) pick(d *Disk) *Request { return d.cscan(false) }

// Iso is the blind isolation policy: it ignores head position and serves
// the SPU with the lowest bandwidth usage relative to its share,
// round-robin style, FIFO within an SPU. It gives the best fairness and
// the worst seek behaviour.
type Iso struct{}

// NewIso returns the blind bandwidth-fairness scheduler.
func NewIso() *Iso { return &Iso{} }

// Name implements Scheduler.
func (*Iso) Name() string { return "Iso" }

func (*Iso) pick(d *Disk) *Request {
	now := d.eng.Now()
	users := d.users()
	if len(users) == 0 {
		// Only shared requests: FIFO, after reading the shared SPU's
		// usage as the policy always has.
		d.usage.relative(now, core.SharedID)
		return d.lanes[core.SharedID].fifo[0]
	}
	// Lowest relative usage goes first, taking SPUs in first-appearance
	// order and replacing only on strictly smaller usage; FIFO within the
	// winning SPU.
	best := users[0]
	bestRel := d.usage.relative(now, best.id)
	for _, l := range users[1:] {
		if rel := d.usage.relative(now, l.id); rel < bestRel-1e-12 {
			best, bestRel = l, rel
		}
	}
	return best.fifo[0]
}

// PIso is the paper's performance-isolation policy: requests are serviced
// in C-SCAN order as long as every SPU with queued requests passes the
// fairness criterion; an SPU whose relative usage exceeds the mean by
// more than Threshold is denied service until it passes again (§3.3).
//
// Threshold trades isolation against throughput: 0 degenerates to
// round-robin-like fairness, a huge value to pure position scheduling.
type PIso struct {
	// Threshold is the BW difference threshold in sectors (relative to a
	// unit share).
	Threshold float64
}

// DefaultBWThreshold is the BW difference threshold used when none is
// specified: 256 sectors (128 KB) of decayed usage above the mean.
const DefaultBWThreshold = 256

// NewPIso returns the fairness+position scheduler with the given
// BW-difference threshold (DefaultBWThreshold if <= 0).
func NewPIso(threshold float64) *PIso {
	if threshold <= 0 {
		threshold = DefaultBWThreshold
	}
	return &PIso{Threshold: threshold}
}

// Name implements Scheduler.
func (*PIso) Name() string { return "PIso" }

func (p *PIso) pick(d *Disk) *Request {
	users := d.users()
	if len(users) == 0 {
		return d.cscan(false) // only shared requests queued
	}
	now := d.eng.Now()
	// Fairness criterion over the SPUs that currently have requests
	// queued. At least one active SPU is at or below the mean, so the
	// passing set is never empty for Threshold >= 0. The mean sums in
	// first-appearance order: float addition order matters.
	var sum float64
	for _, l := range users {
		l.rel = d.usage.relative(now, l.id)
		sum += l.rel
	}
	mean := sum / float64(len(users))
	passed := false
	for _, l := range users {
		l.pass = l.rel <= mean+p.Threshold
		passed = passed || l.pass
	}
	if !passed { // defensive; cannot happen with Threshold >= 0
		for _, l := range users {
			l.pass = true
		}
	}
	return d.cscan(true)
}
