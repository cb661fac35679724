package disk

import "perfiso/internal/core"

// lane holds one SPU's queued requests on one disk. The disk keeps a
// lane per SPU ID, so the schedulers work per active SPU instead of per
// queued request: a lane knows its count, its oldest request, and the
// C-SCAN successor of any head position by binary search.
type lane struct {
	id core.SPUID
	// fifo holds the requests in enqueue order (ascending seq): Iso
	// serves its head, merging scans it, and the head's seq orders the
	// lanes as the requests first appeared in the queue.
	fifo []*Request
	// byCyl holds the same requests in C-SCAN order: ascending
	// (cyl, Sector, seq).
	byCyl []*Request

	// thief is the SPU most recently served while this lane had
	// requests queued, at dispatch number theftAt. A queued request was
	// displaced iff theftAt is later than its enqueue stamp, so StolenBy
	// is resolved once, at dispatch, instead of written into every
	// queued request on every dispatch.
	thief   core.SPUID
	theftAt uint64

	// Per-pick scratch of the fairness policies.
	rel  float64 // relative bandwidth usage
	pass bool    // passes PIso's fairness criterion
}

// cscanLess is the C-SCAN order within one side of the head: cylinder,
// then sector, then enqueue order.
func cscanLess(a, b *Request) bool {
	if a.cyl != b.cyl {
		return a.cyl < b.cyl
	}
	if a.Sector != b.Sector {
		return a.Sector < b.Sector
	}
	return a.seq < b.seq
}

// search returns the index of the first request in byCyl not ordered
// before r.
func (l *lane) search(r *Request) int {
	lo, hi := 0, len(l.byCyl)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if cscanLess(l.byCyl[m], r) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (l *lane) insertSorted(r *Request) {
	i := l.search(r)
	l.byCyl = append(l.byCyl, nil)
	copy(l.byCyl[i+1:], l.byCyl[i:])
	l.byCyl[i] = r
}

func (l *lane) removeSorted(r *Request) {
	i := l.search(r)
	if i == len(l.byCyl) || l.byCyl[i] != r {
		panic("disk: request missing from its lane")
	}
	l.byCyl = removeAt(l.byCyl, i)
}

// remove takes r out of both orders.
func (l *lane) remove(r *Request) {
	l.removeSorted(r)
	lo, hi := 0, len(l.fifo)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.fifo[m].seq < r.seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(l.fifo) || l.fifo[lo] != r {
		panic("disk: request missing from its lane")
	}
	l.fifo = removeAt(l.fifo, lo)
}

// removeAt deletes s[i], clearing the freed tail slot so the backing
// array does not keep a served request alive.
func removeAt(s []*Request, i int) []*Request {
	last := len(s) - 1
	copy(s[i:], s[i+1:])
	s[last] = nil
	return s[:last]
}

// next returns the request C-SCAN serves first from this non-empty lane
// with the head over cylinder head: the first at or beyond the head,
// else (ahead false) the lowest one, where the sweep wraps to.
func (l *lane) next(head int) (r *Request, ahead bool) {
	lo, hi := 0, len(l.byCyl)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.byCyl[m].cyl < head {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(l.byCyl) {
		return l.byCyl[lo], true
	}
	return l.byCyl[0], false
}
