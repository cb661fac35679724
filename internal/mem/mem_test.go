package mem

import (
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// testOwner records eviction callbacks.
type testOwner struct {
	evicted []*Page
}

func (o *testOwner) PageEvicted(p *Page) { o.evicted = append(o.evicted, p) }

// rig builds an engine, SPU manager with n equal user SPUs of the given
// policy, and a memory manager with totalPages frames.
func rig(n int, policy core.Policy, totalPages int) (*sim.Engine, *core.Manager, *Manager, []*core.SPU) {
	eng := sim.NewEngine()
	spus := core.NewManager()
	var us []*core.SPU
	for i := 0; i < n; i++ {
		us = append(us, spus.NewSPU("u", 1, policy))
	}
	m := NewManager(eng, spus, totalPages, 0)
	m.DivideAmongSPUs()
	return eng, spus, m, us
}

func TestAllocateChargesSPU(t *testing.T) {
	_, _, m, us := rig(2, core.ShareIdle, 100)
	o := &testOwner{}
	p := m.Allocate(us[0].ID(), Anon, o)
	if p == nil {
		t.Fatal("allocation failed with plenty of memory")
	}
	if us[0].Used(core.Memory) != 1 {
		t.Fatalf("used = %g", us[0].Used(core.Memory))
	}
	if m.UsedPages() != 1 || m.FreePages() != 99 {
		t.Fatalf("used/free = %d/%d", m.UsedPages(), m.FreePages())
	}
	m.Free(p)
	if us[0].Used(core.Memory) != 0 || m.FreePages() != 100 {
		t.Fatal("free did not return the frame")
	}
}

func TestAllocateDeniedAtAllowedLimit(t *testing.T) {
	_, _, m, us := rig(2, core.ShareNone, 100) // 50 pages each
	o := &testOwner{}
	for i := 0; i < 50; i++ {
		if m.Allocate(us[0].ID(), Anon, o) == nil {
			t.Fatalf("allocation %d failed within entitlement", i)
		}
	}
	if m.Allocate(us[0].ID(), Anon, o) != nil {
		t.Fatal("allocation beyond allowed succeeded (isolation broken)")
	}
	if m.Stat.Denials != 1 {
		t.Fatalf("denials = %d", m.Stat.Denials)
	}
	// A blocking request triggers page replacement within the SPU.
	var got *Page
	m.Request(us[0].ID(), Anon, o, func(p *Page) { got = p })
	if got == nil {
		t.Fatal("replacement did not satisfy the blocked request")
	}
	if m.Stat.Evictions == 0 || len(o.evicted) == 0 {
		t.Fatal("no page of the SPU's own was evicted")
	}
	if o.evicted[0].SPU != us[0].ID() {
		t.Fatal("victim came from another SPU (isolation broken)")
	}
}

func TestKernelPagesChargedToKernelSPU(t *testing.T) {
	_, spus, m, us := rig(1, core.ShareIdle, 100)
	p := m.Allocate(us[0].ID(), Kernel, nil)
	if p.SPU != core.KernelID {
		t.Fatalf("kernel page charged to SPU %d", p.SPU)
	}
	if spus.Kernel().Used(core.Memory) != 1 {
		t.Fatal("kernel SPU not charged")
	}
	if us[0].Used(core.Memory) != 0 {
		t.Fatal("user SPU wrongly charged for a kernel page")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	_, _, m, us := rig(1, core.ShareIdle, 10)
	p := m.Allocate(us[0].ID(), Anon, nil)
	m.Free(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Free(p)
}

func TestTouchRetagsSharedPages(t *testing.T) {
	_, spus, m, us := rig(2, core.ShareIdle, 100)
	p := m.Allocate(us[0].ID(), Cache, nil)
	m.Touch(p, us[0].ID()) // same SPU: no retag
	if p.SPU != us[0].ID() {
		t.Fatal("self-touch retagged the page")
	}
	m.Touch(p, us[1].ID()) // second SPU: retag to shared (§3.2)
	if p.SPU != core.SharedID {
		t.Fatal("cross-SPU touch did not retag to shared")
	}
	if spus.Shared().Used(core.Memory) != 1 || us[0].Used(core.Memory) != 0 {
		t.Fatal("retag accounting wrong")
	}
	if m.Stat.Retags != 1 {
		t.Fatalf("retags = %d", m.Stat.Retags)
	}
	// Further touches by either SPU leave it shared.
	m.Touch(p, us[0].ID())
	if p.SPU != core.SharedID {
		t.Fatal("shared page lost its tag")
	}
}

func TestTouchUpdatesLastUse(t *testing.T) {
	eng, _, m, us := rig(1, core.ShareIdle, 10)
	p := m.Allocate(us[0].ID(), Anon, nil)
	eng.At(50*sim.Millisecond, "touch", func() { m.Touch(p, us[0].ID()) })
	eng.Run()
	if p.LastUse() != 50*sim.Millisecond {
		t.Fatalf("LastUse = %v", p.LastUse())
	}
}

func TestEvictionPrefersLRU(t *testing.T) {
	eng, _, m, us := rig(1, core.ShareNone, 100)
	us[0].SetEntitled(core.Memory, 3)
	us[0].SetAllowed(core.Memory, 3)
	o := &testOwner{}
	p0 := m.Allocate(us[0].ID(), Anon, o)
	p1 := m.Allocate(us[0].ID(), Anon, o)
	p2 := m.Allocate(us[0].ID(), Anon, o)
	// Make p1 the LRU page.
	eng.At(sim.Millisecond, "t", func() { m.Touch(p0, us[0].ID()); m.Touch(p2, us[0].ID()) })
	eng.Run()
	got := make(chan *Page, 1)
	_ = got
	var delivered *Page
	m.Request(us[0].ID(), Anon, o, func(p *Page) { delivered = p })
	if delivered == nil {
		t.Fatal("request not satisfied after eviction")
	}
	if len(o.evicted) != 1 || o.evicted[0] != p1 {
		t.Fatalf("evicted %v, want the LRU page p1", o.evicted)
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	_, _, m, us := rig(1, core.ShareNone, 100)
	us[0].SetEntitled(core.Memory, 2)
	us[0].SetAllowed(core.Memory, 2)
	o := &testOwner{}
	p0 := m.Allocate(us[0].ID(), Anon, o)
	p1 := m.Allocate(us[0].ID(), Anon, o)
	m.SetPinned(p0, true)
	m.SetPinned(p1, true)
	if m.Allocate(us[0].ID(), Anon, o) != nil {
		t.Fatal("allocation should fail: at limit and both pages pinned")
	}
	if len(o.evicted) != 0 {
		t.Fatal("pinned page was evicted")
	}
}

func TestDirtyEvictionGoesThroughPageout(t *testing.T) {
	eng, _, m, us := rig(1, core.ShareNone, 100)
	us[0].SetEntitled(core.Memory, 1)
	us[0].SetAllowed(core.Memory, 1)
	o := &testOwner{}
	p := m.Allocate(us[0].ID(), Anon, o)
	m.MarkDirty(p)
	var wrote []*Page
	m.SetPageout(func(pg *Page, done func(ok bool)) {
		wrote = append(wrote, pg)
		eng.After(10*sim.Millisecond, "writeback", func() { done(true) })
	})
	var delivered *Page
	m.Request(us[0].ID(), Anon, o, func(np *Page) { delivered = np })
	if delivered != nil {
		t.Fatal("request satisfied before write-back completed")
	}
	eng.Run()
	if delivered == nil {
		t.Fatal("request never satisfied after write-back")
	}
	if len(wrote) != 1 || wrote[0] != p {
		t.Fatal("dirty page did not go through pageout")
	}
	if m.Stat.DirtyWrites != 1 {
		t.Fatalf("DirtyWrites = %d", m.Stat.DirtyWrites)
	}
}

func TestRequestQueuesFIFO(t *testing.T) {
	_, _, m, us := rig(1, core.ShareNone, 100)
	us[0].SetEntitled(core.Memory, 1)
	us[0].SetAllowed(core.Memory, 1)
	o := &testOwner{}
	first := m.Allocate(us[0].ID(), Anon, o)
	m.SetPinned(first, true) // block replacement so requests queue
	var order []int
	m.Request(us[0].ID(), Anon, o, func(*Page) { order = append(order, 1) })
	m.Request(us[0].ID(), Anon, o, func(*Page) { order = append(order, 2) })
	if m.Waiters() != 2 {
		t.Fatalf("waiters = %d", m.Waiters())
	}
	// Raise the limit; both waiters should drain in order.
	us[0].SetAllowed(core.Memory, 3)
	m.serveWaiters()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestWaiterFromOtherSPUNotBlockedByStuckHead(t *testing.T) {
	_, _, m, us := rig(2, core.ShareNone, 100) // 50 each
	o := &testOwner{}
	// Fill SPU 0 to its quota with pinned pages: its waiter is stuck.
	for i := 0; i < 50; i++ {
		p := m.Allocate(us[0].ID(), Anon, o)
		m.SetPinned(p, true)
	}
	var got0, got1 bool
	m.Request(us[0].ID(), Anon, o, func(*Page) { got0 = true })
	m.Request(us[1].ID(), Anon, o, func(*Page) { got1 = true })
	// SPU 1 has plenty of quota; serveWaiters must skip the stuck head.
	m.serveWaiters()
	if got0 {
		t.Fatal("stuck waiter somehow served")
	}
	if !got1 {
		t.Fatal("waiter from healthy SPU blocked behind stuck head-of-line")
	}
}

func TestDivideAmongSPUsSubtractsKernelAndShared(t *testing.T) {
	_, spus, m, us := rig(2, core.ShareIdle, 100)
	// Kernel takes 10 pages, shared 6: users divide the remaining 84.
	for i := 0; i < 10; i++ {
		m.Allocate(us[0].ID(), Kernel, nil)
	}
	spus.Shared().Charge(core.Memory, 6)
	m.DivideAmongSPUs()
	if us[0].Entitled(core.Memory) != 42 || us[1].Entitled(core.Memory) != 42 {
		t.Fatalf("entitled = %g, %g", us[0].Entitled(core.Memory), us[1].Entitled(core.Memory))
	}
}
