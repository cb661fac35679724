// Package mem implements the physical memory manager with per-SPU
// isolation and sharing (§3.2 of the paper).
//
// Every page frame is charged to an SPU. An SPU may not use more frames
// than its allowed level; a request beyond the limit is denied and the
// requester waits while the reclaim path evicts pages (writing dirty ones
// to disk through a kernel-supplied pageout function). A sharing policy
// periodically redistributes idle pages — the total free pages less a
// Reserve Threshold (8 % of memory, the value IRIX uses to decide it is
// low on memory) — to SPUs under memory pressure by raising their allowed
// levels, and revokes the loans when the owners need the pages back.
//
// Pages accessed by more than one SPU are re-tagged to the shared SPU,
// and kernel pages to the kernel SPU; only the remaining frames are
// divided among user SPUs (§2.2), which the policy tick re-evaluates.
package mem

import (
	"fmt"

	"perfiso/internal/control"
	"perfiso/internal/core"
	"perfiso/internal/lock"
	"perfiso/internal/metrics"
	"perfiso/internal/sim"
	"perfiso/internal/stats"
	"perfiso/internal/trace"
)

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// SectorsPerPage is how many 512-byte disk sectors one page occupies.
const SectorsPerPage = PageSize / 512

// DefaultReserve is the Reserve Threshold fraction: 8 % of total memory,
// the value the paper chose because IRIX uses it to decide it is running
// low on memory (§3.2).
const DefaultReserve = 0.08

// Kind classifies what a page frame is used for.
type Kind int

const (
	// Anon is process anonymous memory (heap, stack, data).
	Anon Kind = iota
	// Cache is file buffer-cache or file meta-data memory; the paper
	// charges these to the SPU that caused them (§3.2).
	Cache
	// Kernel is kernel code/data, always charged to the kernel SPU.
	Kernel
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Anon:
		return "anon"
	case Cache:
		return "cache"
	default:
		return "kernel"
	}
}

// Owner is the object a page belongs to (a process resident set or a
// buffer-cache entry). The manager calls Evicted when it reclaims the
// page; the owner must forget the page and fault it back in later if
// needed.
type Owner interface {
	PageEvicted(p *Page)
}

// Page is one physical page frame in use.
type Page struct {
	SPU   core.SPUID
	Kind  Kind
	Owner Owner

	lastUse sim.Time
	key     sim.Time // lastUse snapshot ordering the LRU heap; key <= lastUse
	seq     uint64   // allocation sequence; LRU tie-break after lastUse
	spuIdx  int      // position in the owning SPU's page list, -1 when not linked
	hidx    int      // position in the SPU's clean or dirty LRU heap
	dirty   bool
	pinned  bool // never evicted while pinned (e.g. in-flight disk IO)
}

// LastUse returns the time of the page's most recent use. Only Touch
// raises it: the LRU heaps rely on it never falling.
func (p *Page) LastUse() sim.Time { return p.lastUse }

// Dirty reports whether the page needs write-back before reuse. The flag
// is set through Manager.MarkDirty / SetDirty so the page stays in the
// right LRU heap.
func (p *Page) Dirty() bool { return p.dirty }

// Pinned reports whether the page is exempt from eviction (e.g. its
// frame is the target of in-flight disk IO). Set through
// Manager.SetPinned.
func (p *Page) Pinned() bool { return p.pinned }

// PageoutFunc writes a dirty page's contents to backing store and calls
// done when the write completes, with ok=false if the write failed (a
// degraded disk); the manager retries failed pageouts with backoff. The
// kernel wires this to the right disk; tests may complete synchronously.
type PageoutFunc func(p *Page, done func(ok bool))

// waiter is a pending allocation that could not be satisfied.
type waiter struct {
	spu   core.SPUID
	kind  Kind
	owner Owner
	fn    func(*Page)
}

// Stats aggregates memory-manager statistics.
type Stats struct {
	Allocations    int64
	Denials        int64 // allocation attempts denied (limit or no memory)
	Evictions      int64
	DirtyWrites    int64
	PageoutRetries int64 // failed pageout writes retried with backoff
	PageoutClamped int64 // pageout retries throttled to the slow lane (budget spent)
	Retags         int64 // pages re-tagged to the shared SPU
	FreePages      stats.TimeWeighted
	WaitQueueLen   stats.TimeWeighted
}

// spuPages is one SPU's share of the frames in use. Every linked page is
// in list; the unpinned ones are also in exactly one LRU heap, the one
// matching their dirty flag, so reclaim finds the SPU's clean and dirty
// LRU pages without a scan.
type spuPages struct {
	list     []*Page // unordered; Page.spuIdx is the position
	clean    lruHeap
	dirty    lruHeap
	pinned   int  // pinned pages in list
	pressure bool // hit its limit since the last policy tick
}

// lru returns the heap an unpinned page with the given dirty flag
// belongs in.
func (s *spuPages) lru(dirty bool) *lruHeap {
	if dirty {
		return &s.dirty
	}
	return &s.clean
}

// Manager is the physical memory manager for one machine.
type Manager struct {
	eng   *sim.Engine
	spus  *core.Manager
	total int // total page frames

	reserve float64 // fraction of total kept free (Reserve Threshold)
	pageout PageoutFunc

	bySPU    []spuPages // frames in use, partitioned by owning SPU (index = SPUID)
	linked   int        // frames in use across bySPU
	pseq     uint64     // allocation sequence for LRU tie-breaking
	inFlight int        // frames being evicted (still counted as used)
	waiters  []waiter

	// prevAllowed is redivide's per-tick scratch, reused so the policy
	// tick stays allocation-free.
	prevAllowed []float64

	reclaiming bool // reentrancy guards: eviction frees pages, which
	serving    bool // serves waiters, which may allocate and deny again

	Stat Stats
	// Trace, when non-nil, records evictions and policy decisions.
	Trace *trace.Tracer
	// Metrics, when non-nil, receives per-SPU reclaim, dirty-write, and
	// pageout-retry counters. Nil costs nothing.
	Metrics *metrics.Registry
	// Retry bounds the failed-pageout resubmission loop (zero fields
	// take control.DefaultRetryPolicy): exponential backoff while the
	// budget lasts, slow-lane cadence after.
	Retry control.RetryPolicy
	// AuditHook, when non-nil, runs after loan revocations, policy
	// ticks, and fault-driven frame-count changes so the invariant
	// auditor can check frame conservation at every sharing boundary.
	// The hook must only read manager state.
	AuditHook func(reason string)

	// FrameLock, when non-nil, is the accounting-only model of the
	// frame-pool lock a real kernel takes around allocation and free:
	// one shared gate is the coarse global free-list lock, per-SPU
	// gates model per-SPU pools. It records serialization (and
	// cross-SPU lock theft, under a shared gate) without perturbing
	// timing. Nil costs one branch per pool operation.
	FrameLock *lock.GateSet
}

// NewManager creates a memory manager with the given number of page
// frames. reserve <= 0 selects DefaultReserve.
func NewManager(eng *sim.Engine, spus *core.Manager, totalPages int, reserve float64) *Manager {
	if totalPages <= 0 {
		panic(fmt.Sprintf("mem: totalPages = %d", totalPages))
	}
	if reserve <= 0 {
		reserve = DefaultReserve
	}
	m := &Manager{
		eng:     eng,
		spus:    spus,
		total:   totalPages,
		reserve: reserve,
	}
	m.Stat.FreePages.Set(eng.Now(), float64(totalPages))
	return m
}

// SetPageout installs the dirty-page write-back function.
func (m *Manager) SetPageout(fn PageoutFunc) { m.pageout = fn }

// TotalPages returns the configured number of frames.
func (m *Manager) TotalPages() int { return m.total }

// UsedPages returns the number of frames in use (including frames whose
// eviction write-back is still in flight).
func (m *Manager) UsedPages() int { return m.linked + m.inFlight }

// FreePages returns the number of frames immediately available.
func (m *Manager) FreePages() int { return m.total - m.UsedPages() }

// ReservePages returns the Reserve Threshold in pages.
func (m *Manager) ReservePages() int { return int(m.reserve * float64(m.total)) }

// RemoveFrames takes n frames out of service (fault injection: failed
// DIMMs, or a pressure spike from outside the model). The free count
// may go negative; the pager immediately evicts to rebalance the books,
// and allocations are denied until it succeeds. The caller should
// re-divide entitlements afterwards (kernel.Rebalance does).
func (m *Manager) RemoveFrames(n int) {
	if n <= 0 {
		return
	}
	if n >= m.total {
		n = m.total - 1 // never remove the whole machine
	}
	m.total -= n
	m.Stat.FreePages.Set(m.eng.Now(), float64(m.FreePages()))
	m.kickReclaim()
	m.auditBoundary("remove-frames")
}

// AddFrames returns n frames to service, waking any queued waiters.
func (m *Manager) AddFrames(n int) {
	if n <= 0 {
		return
	}
	m.total += n
	m.Stat.FreePages.Set(m.eng.Now(), float64(m.FreePages()))
	m.serveWaiters()
	m.auditBoundary("add-frames")
}

// DivideAmongSPUs recomputes user SPUs' entitled/allowed memory from the
// frames not consumed by the kernel and shared SPUs (§2.2, §3.2). The
// kernel calls this at boot and from the policy tick.
func (m *Manager) DivideAmongSPUs() {
	overhead := int(m.spus.Kernel().Used(core.Memory) + m.spus.Shared().Used(core.Memory))
	avail := m.total - overhead
	if avail < 0 {
		avail = 0
	}
	m.spus.DivideIntegral(core.Memory, avail)
}

// Allocate tries to allocate one frame for the SPU. It returns nil when
// the SPU is at its allowed limit or the machine is out of frames; in
// that case the caller should use Request to wait.
func (m *Manager) Allocate(spu core.SPUID, kind Kind, owner Owner) *Page {
	m.FrameLock.Acquire(spu)
	s := m.spus.Get(spu)
	if kind == Kernel {
		s = m.spus.Kernel()
	}
	if m.FreePages() <= 0 || !s.CanUse(core.Memory, 1) {
		m.Stat.Denials++
		if spu.IsUser() {
			m.bySPU[m.slot(spu)].pressure = true
		}
		m.kickReclaim()
		return nil
	}
	p := &Page{SPU: s.ID(), Kind: kind, Owner: owner, lastUse: m.eng.Now(), seq: m.pseq}
	m.pseq++
	m.link(p)
	s.Charge(core.Memory, 1)
	m.Stat.Allocations++
	m.Stat.FreePages.Set(m.eng.Now(), float64(m.FreePages()))
	return p
}

// Request allocates a frame, delivering it through fn. If no frame is
// available now, the request queues and fn runs later, when reclaim or a
// loan makes a frame available. Waiters are served FIFO.
func (m *Manager) Request(spu core.SPUID, kind Kind, owner Owner, fn func(*Page)) {
	if p := m.Allocate(spu, kind, owner); p != nil {
		fn(p)
		return
	}
	m.waiters = append(m.waiters, waiter{spu: spu, kind: kind, owner: owner, fn: fn})
	m.Stat.WaitQueueLen.Set(m.eng.Now(), float64(len(m.waiters)))
	// Now that the waiter is visible, run the pager so replacement or
	// revocation can free a frame for it.
	m.kickReclaim()
	m.serveWaiters()
}

// Release frees a frame if it is still held, and is a no-op if the
// frame was already freed or is mid-eviction. Process exit uses this:
// freeing one page can wake waiters whose allocations trigger reclaim,
// which may concurrently take other pages of the same exiting process.
func (m *Manager) Release(p *Page) {
	if p.spuIdx < 0 {
		return
	}
	m.Free(p)
}

// Free releases a frame back to the pool.
func (m *Manager) Free(p *Page) {
	if p.spuIdx < 0 {
		panic("mem: double free")
	}
	m.FrameLock.Acquire(p.SPU)
	m.unlink(p)
	m.spus.Get(p.SPU).Charge(core.Memory, -1)
	m.Stat.FreePages.Set(m.eng.Now(), float64(m.FreePages()))
	m.serveWaiters()
}

// slot returns the per-SPU array index for the SPU, growing the array
// on first sight of a new id.
func (m *Manager) slot(id core.SPUID) int {
	i := int(id)
	for len(m.bySPU) <= i {
		m.bySPU = append(m.bySPU, spuPages{})
	}
	return i
}

// link adds the page to its SPU's list and, unless pinned, to the LRU
// heap matching its dirty flag. Only linked pages are listed and
// counted: a frame mid-eviction is unlinked and tracked by inFlight.
func (m *Manager) link(p *Page) {
	s := &m.bySPU[m.slot(p.SPU)]
	p.spuIdx = len(s.list)
	s.list = append(s.list, p)
	m.linked++
	if p.pinned {
		s.pinned++
	}
	m.index(p)
}

// unlink removes the page from its LRU heap and its SPU's list
// (swap-remove).
func (m *Manager) unlink(p *Page) {
	m.unindex(p)
	s := &m.bySPU[p.SPU]
	l := s.list
	last := len(l) - 1
	l[p.spuIdx] = l[last]
	l[p.spuIdx].spuIdx = p.spuIdx
	l[last] = nil
	s.list = l[:last]
	p.spuIdx = -1
	m.linked--
	if p.pinned {
		s.pinned--
	}
}

// Touch records a use of the page by the given SPU at the current time.
// A user page touched by a second user SPU is re-tagged to the shared
// SPU, so its cost is borne by everyone (§3.2).
func (m *Manager) Touch(p *Page, by core.SPUID) {
	p.lastUse = m.eng.Now()
	if p.spuIdx < 0 || !by.IsUser() || !p.SPU.IsUser() || p.SPU == by {
		return
	}
	m.spus.Get(p.SPU).Charge(core.Memory, -1)
	m.spus.Shared().Charge(core.Memory, 1)
	m.unlink(p)
	p.SPU = core.SharedID
	m.link(p)
	m.Stat.Retags++
}

// MarkDirty flags the page as needing write-back before reuse.
func (m *Manager) MarkDirty(p *Page) { m.SetDirty(p, true) }

// SetDirty sets or clears the page's dirty flag, moving an indexed page
// between its SPU's clean and dirty LRU heaps.
func (m *Manager) SetDirty(p *Page, v bool) {
	if p.dirty == v {
		return
	}
	m.unindex(p)
	p.dirty = v
	m.index(p)
}

// SetPinned pins or unpins the page. A pinned page is never evicted —
// in-flight disk IO targets its frame — so it leaves the LRU heaps.
func (m *Manager) SetPinned(p *Page, v bool) {
	if p.pinned == v {
		return
	}
	if p.spuIdx >= 0 {
		if v {
			m.bySPU[p.SPU].pinned++
		} else {
			m.bySPU[p.SPU].pinned--
		}
	}
	m.unindex(p)
	p.pinned = v
	m.index(p)
}

// index adds a linked, unpinned page to the LRU heap its dirty flag
// selects; unindex removes it. Both ignore every other page.
func (m *Manager) index(p *Page) {
	if p.spuIdx >= 0 && !p.pinned {
		m.bySPU[p.SPU].lru(p.dirty).push(p)
	}
}

func (m *Manager) unindex(p *Page) {
	if p.spuIdx >= 0 && !p.pinned {
		m.bySPU[p.SPU].lru(p.dirty).remove(p)
	}
}

// Culprit identifies the SPU to blame when victim stalls waiting for
// frames, for the profiler's interference matrix. Under ShareAll no
// per-SPU limits exist, so the biggest frame holder other than the
// victim is in the way; under the isolating policies only an SPU using
// more than its entitlement (frames on loan that reclaim must claw
// back) can be blamed. If nobody qualifies the stall is self-inflicted
// and the victim itself is returned, which the profiler treats as
// no-theft. Deterministic: Users() iterates in creation order and ties
// keep the first maximum.
func (m *Manager) Culprit(victim core.SPUID) core.SPUID {
	shareAll := m.spus.Get(victim).Policy() == core.ShareAll
	best := victim
	var bestScore float64
	for _, u := range m.spus.Users() {
		if u.ID() == victim {
			continue
		}
		score := u.Used(core.Memory)
		if !shareAll {
			score -= u.Entitled(core.Memory)
		}
		if score > bestScore {
			best, bestScore = u.ID(), score
		}
	}
	return best
}

// Waiters returns the number of queued allocation requests.
func (m *Manager) Waiters() int { return len(m.waiters) }

// Pressured reports whether the SPU has hit its memory limit since the
// last policy tick.
func (m *Manager) Pressured(spu core.SPUID) bool {
	return int(spu) < len(m.bySPU) && m.bySPU[spu].pressure
}

// Audit verifies the manager's internal consistency the slow, exhaustive
// way: per-SPU list linkage, agreement between a scan and the
// incremental counters the fast path trusts, the LRU heap laws, frame
// conservation, and charge/ownership agreement. It returns a
// descriptive error on the first violation. Intended for tests, the
// stress harness, and the final sweep; it is O(pages). The per-tick
// sweep uses auditFast.
//
// The heap laws: every linked unpinned page sits at its hidx in the heap
// matching its dirty flag; every heap entry is a linked, unpinned page
// of that SPU with the matching flag, at its own hidx, keyed no later
// than its lastUse and no earlier than its parent. With auditFast's size
// law this makes heap membership exactly the unpinned pages.
func (m *Manager) Audit() error {
	linked := 0
	for id := range m.bySPU {
		s := &m.bySPU[id]
		pinned := 0
		for i, p := range s.list {
			if p.spuIdx != i {
				return fmt.Errorf("mem audit: spu%d page at slot %d has spuIdx %d", id, i, p.spuIdx)
			}
			if int(p.SPU) != id {
				return fmt.Errorf("mem audit: spu%d list holds a page owned by spu%d", id, p.SPU)
			}
			if p.pinned {
				pinned++
				continue
			}
			if h := *s.lru(p.dirty); p.hidx < 0 || p.hidx >= len(h) || h[p.hidx] != p {
				return fmt.Errorf("mem audit: spu%d unpinned page seq %d (dirty=%v) is not in its LRU heap",
					id, p.seq, p.dirty)
			}
		}
		linked += len(s.list)
		if s.pinned != pinned {
			return fmt.Errorf("mem audit: spu%d pinned counter %d, scan found %d", id, s.pinned, pinned)
		}
		for _, dirty := range [2]bool{false, true} {
			h := *s.lru(dirty)
			for j, p := range h {
				switch {
				case p.hidx != j:
					return fmt.Errorf("mem audit: spu%d LRU heap slot %d holds a page with hidx %d", id, j, p.hidx)
				case p.spuIdx < 0 || p.spuIdx >= len(s.list) || s.list[p.spuIdx] != p:
					return fmt.Errorf("mem audit: spu%d LRU heap holds page seq %d, which is not in its list", id, p.seq)
				case p.pinned || p.dirty != dirty:
					return fmt.Errorf("mem audit: spu%d dirty=%v LRU heap holds page seq %d with dirty=%v pinned=%v",
						id, dirty, p.seq, p.dirty, p.pinned)
				case p.key > p.lastUse:
					return fmt.Errorf("mem audit: spu%d page seq %d has LRU key %v after its last use %v",
						id, p.seq, p.key, p.lastUse)
				case j > 0 && lruLess(p, h[(j-1)/2]):
					return fmt.Errorf("mem audit: spu%d LRU heap order broken at slot %d", id, j)
				}
			}
		}
	}
	if linked != m.linked {
		return fmt.Errorf("mem audit: SPU lists hold %d pages, linked count %d", linked, m.linked)
	}
	return m.auditFast()
}

// auditFast checks frame conservation, charge/ownership agreement and
// the LRU heap sizes from the incrementally-maintained per-SPU lists,
// heaps and counters — O(#SPUs), no scan, no allocation. Audit
// cross-checks those structures against a full scan, so tests and the
// final sweep would catch counter drift.
func (m *Manager) auditFast() error {
	if got := m.linked + m.inFlight; got+m.FreePages() != m.total {
		return fmt.Errorf("mem audit: used %d + free %d != total %d", got, m.FreePages(), m.total)
	}
	for id := range m.bySPU {
		s := &m.bySPU[id]
		if n := len(s.clean) + len(s.dirty); n != len(s.list)-s.pinned {
			return fmt.Errorf("mem audit: spu%d LRU heaps hold %d pages, %d linked and %d pinned",
				id, n, len(s.list), s.pinned)
		}
	}
	// In-flight evictions keep their SPU charge until write-back ends,
	// so per-SPU charges may exceed the owned-page count by at most the
	// total in-flight frames.
	var charged float64
	slack := m.inFlight
	for _, s := range m.spus.All() {
		u := s.Used(core.Memory)
		charged += u
		owned := 0
		if i := int(s.ID()); i < len(m.bySPU) {
			owned = len(m.bySPU[i].list)
		}
		if int(u) < owned {
			return fmt.Errorf("mem audit: SPU %d charged %.0f but owns %d pages", s.ID(), u, owned)
		}
		if int(u) > owned+slack {
			return fmt.Errorf("mem audit: SPU %d charged %.0f, owns %d (+%d in flight)",
				s.ID(), u, owned, slack)
		}
	}
	if int(charged) != m.linked+m.inFlight {
		return fmt.Errorf("mem audit: total charges %.0f != %d frames in use",
			charged, m.linked+m.inFlight)
	}
	return nil
}

// serveWaiters retries queued allocation requests in FIFO order,
// stopping at the first that still cannot be satisfied (to preserve
// ordering within and across SPUs).
func (m *Manager) serveWaiters() {
	if m.serving {
		return
	}
	m.serving = true
	defer func() { m.serving = false }()
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		p := m.Allocate(w.spu, w.kind, w.owner)
		if p == nil {
			// Head-of-line waiter is stuck; try to find any other waiter
			// from a different SPU that can proceed, so one throttled SPU
			// does not block the whole machine.
			served := false
			for i := 1; i < len(m.waiters); i++ {
				if m.waiters[i].spu == w.spu {
					continue
				}
				if p2 := m.Allocate(m.waiters[i].spu, m.waiters[i].kind, m.waiters[i].owner); p2 != nil {
					fn := m.waiters[i].fn
					m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
					m.Stat.WaitQueueLen.Set(m.eng.Now(), float64(len(m.waiters)))
					fn(p2)
					served = true
					break
				}
			}
			if !served {
				return
			}
			continue
		}
		m.waiters = m.waiters[1:]
		m.Stat.WaitQueueLen.Set(m.eng.Now(), float64(len(m.waiters)))
		w.fn(p)
	}
}
