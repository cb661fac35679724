package disk

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// Kind distinguishes reads from writes.
type Kind int

const (
	Read Kind = iota
	Write
)

// String returns "read" or "write".
func (k Kind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Charge attributes part of a shared request's sectors to a user SPU.
// Delayed writes issued by kernel daemons carry pages from several SPUs;
// the request is scheduled under the shared SPU, and once it completes
// the individual sectors are charged back to their owners (§3.3).
type Charge struct {
	SPU     core.SPUID
	Sectors int
}

// Request is one disk operation. Submit it with Disk.Submit; Done (if
// non-nil) runs when the transfer completes.
type Request struct {
	Kind   Kind
	Sector int64 // first sector
	Count  int   // number of sectors
	SPU    core.SPUID
	// Charges is set on shared-SPU requests: the per-user-SPU breakdown
	// applied to the bandwidth accounting after completion.
	Charges []Charge
	// Done is invoked at completion time with the finished request.
	Done func(*Request)

	// Filled in by the disk.
	Submitted sim.Time // when the request entered the queue
	Started   sim.Time // when service began
	Finished  sim.Time // when the transfer completed
	SeekTime  sim.Time // seek component of service
	RotTime   sim.Time // rotational-delay component of service
	// Failed is set when an injected transient fault made the transfer
	// fail: the request consumed arm time but moved no usable data, and
	// the submitter is expected to retry. Submit clears it, so a request
	// object can be resubmitted as-is.
	Failed bool

	// Backoff accumulates the retry delays the submitter inserted before
	// resubmitting this request after failed transfers, so the profiler
	// can separate backoff from genuine queueing in a waiter's stall.
	Backoff sim.Time
	// StolenBy is the SPU whose request the scheduler most recently
	// served while this one sat queued (recorded by the profiler blame
	// pass, filled in when the request is dispatched; the zero value
	// means never displaced — the kernel SPU issues no disk traffic, so
	// KernelID cannot be a real thief).
	StolenBy core.SPUID

	// Set by the disk at enqueue: the cylinder of Sector, the FIFO
	// position, and the disk's dispatch count (see lane.thief).
	cyl int
	seq uint64
	enq uint64

	mark uint64 // last Audit pass that found it queued
}

// Positioning returns the mechanical positioning latency (seek plus
// rotational delay) of the request, the quantity the paper's "average
// disk latency" column tracks.
func (r *Request) Positioning() sim.Time { return r.SeekTime + r.RotTime }

// Wait returns how long the request sat in the queue before service.
func (r *Request) Wait() sim.Time { return r.Started - r.Submitted }

// Service returns the time spent in actual service (seek+rotate+transfer).
func (r *Request) Service() sim.Time { return r.Finished - r.Started }

// Latency returns the total submit-to-finish time.
func (r *Request) Latency() sim.Time { return r.Finished - r.Submitted }

func (r *Request) validate(totalSectors int64) error {
	if r.SPU < 0 {
		return fmt.Errorf("disk: request for invalid SPU %d", r.SPU)
	}
	if r.Count <= 0 {
		return fmt.Errorf("disk: request with non-positive count %d", r.Count)
	}
	if r.Sector < 0 || r.Sector+int64(r.Count) > totalSectors {
		return fmt.Errorf("disk: request [%d,+%d) outside disk of %d sectors",
			r.Sector, r.Count, totalSectors)
	}
	return nil
}
