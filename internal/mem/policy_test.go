package mem

import (
	"testing"
	"testing/quick"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

func TestPolicyLendsIdlePagesToNeedy(t *testing.T) {
	_, _, m, us := rig(2, core.ShareIdle, 1000) // 500 each, reserve 80
	o := &testOwner{}
	// SPU 0 idle; SPU 1 fills its entitlement and is denied more.
	for i := 0; i < 500; i++ {
		if m.Allocate(us[1].ID(), Anon, o) == nil {
			t.Fatalf("allocation %d failed within entitlement", i)
		}
	}
	if m.Allocate(us[1].ID(), Anon, o) != nil {
		t.Fatal("allocation beyond entitlement succeeded before policy ran")
	}
	m.PolicyTick()
	// Free = 500, reserve = 80: SPU 1 should be lent 420 pages.
	if got := us[1].Allowed(core.Memory); got < 900 {
		t.Fatalf("allowed after lending = %g, want ~920", got)
	}
	if m.Allocate(us[1].ID(), Anon, o) == nil {
		t.Fatal("allocation still denied after loan")
	}
}

func TestPolicyRespectsReserveThreshold(t *testing.T) {
	_, _, m, us := rig(2, core.ShareIdle, 1000)
	o := &testOwner{}
	for i := 0; i < 500; i++ {
		m.Allocate(us[1].ID(), Anon, o)
	}
	m.Allocate(us[1].ID(), Anon, o) // sets pressure
	m.PolicyTick()
	// Fill to the new allowed level.
	for m.Allocate(us[1].ID(), Anon, o) != nil {
	}
	if free := m.FreePages(); free < m.ReservePages() {
		t.Fatalf("lending ate into the reserve: free %d < reserve %d", free, m.ReservePages())
	}
}

func TestPolicyNeverLendsToShareNone(t *testing.T) {
	_, _, m, us := rig(2, core.ShareNone, 1000)
	o := &testOwner{}
	for i := 0; i < 500; i++ {
		m.Allocate(us[1].ID(), Anon, o)
	}
	m.Allocate(us[1].ID(), Anon, o)
	m.PolicyTick()
	if us[1].Allowed(core.Memory) > 500 {
		t.Fatal("fixed-quota SPU received a loan")
	}
}

func TestPolicyRevokesWhenLenderReturns(t *testing.T) {
	eng, _, m, us := rig(2, core.ShareIdle, 1000)
	o := &testOwner{}
	// SPU 1 borrows heavily.
	for i := 0; i < 500; i++ {
		m.Allocate(us[1].ID(), Anon, o)
	}
	m.Allocate(us[1].ID(), Anon, o)
	m.PolicyTick()
	for m.Allocate(us[1].ID(), Anon, o) != nil {
	}
	borrowed := int(us[1].Used(core.Memory)) - 500
	if borrowed <= 0 {
		t.Fatal("setup: no loan happened")
	}
	// Now SPU 0 wants its memory: allocate until denied, then run the
	// policy (as the kernel's tick would).
	allocated := 0
	for i := 0; i < 500; i++ {
		if m.Allocate(us[0].ID(), Anon, o) == nil {
			break
		}
		allocated++
	}
	for round := 0; round < 50 && allocated < 450; round++ {
		eng.RunUntil(eng.Now() + 100*sim.Millisecond)
		m.PolicyTick()
		for allocated < 500 {
			if m.Allocate(us[0].ID(), Anon, o) == nil {
				break
			}
			allocated++
		}
	}
	if allocated < 450 {
		t.Fatalf("lender only got %d of its 500 entitled pages back", allocated)
	}
	if us[1].Allowed(core.Memory) > us[1].Entitled(core.Memory)+float64(m.ReservePages()) {
		t.Fatalf("borrower kept allowed=%g after revocation", us[1].Allowed(core.Memory))
	}
}

func TestPolicyStableWithoutDemandChanges(t *testing.T) {
	// A borrower at steady state must not see its loan revoked and
	// re-granted (thrash) when nothing else changes.
	_, _, m, us := rig(2, core.ShareIdle, 1000)
	o := &testOwner{}
	for i := 0; i < 500; i++ {
		m.Allocate(us[1].ID(), Anon, o)
	}
	m.Allocate(us[1].ID(), Anon, o)
	m.PolicyTick()
	for m.Allocate(us[1].ID(), Anon, o) != nil {
	}
	used := us[1].Used(core.Memory)
	evBefore := m.Stat.Evictions
	for i := 0; i < 10; i++ {
		m.PolicyTick()
	}
	if us[1].Used(core.Memory) < used-1 {
		t.Fatalf("steady-state borrower lost pages: %g -> %g", used, us[1].Used(core.Memory))
	}
	if m.Stat.Evictions != evBefore {
		t.Fatalf("steady-state policy caused %d evictions", m.Stat.Evictions-evBefore)
	}
}

func TestShareAllIgnoresLimitsUntilMemoryExhausted(t *testing.T) {
	_, _, m, us := rig(2, core.ShareAll, 100)
	o := &testOwner{}
	// SMP: one SPU can take nearly everything.
	n := 0
	for m.Allocate(us[0].ID(), Anon, o) != nil {
		n++
	}
	if n != 100 {
		t.Fatalf("SMP SPU allocated %d of 100 frames", n)
	}
	// Global LRU reclaim kicks in for the other SPU's request.
	var got *Page
	m.Request(us[1].ID(), Anon, o, func(p *Page) { got = p })
	if got == nil {
		t.Fatal("global reclaim did not serve the second SPU")
	}
	if len(o.evicted) == 0 {
		t.Fatal("no page was evicted")
	}
}

// Property: accounting is conserved — used frames equal the sum of SPU
// charges, and free+used equals the total, across random alloc/free
// sequences.
func TestPropertyAccountingConserved(t *testing.T) {
	f := func(ops []uint8) bool {
		_, spus, m, us := rig(3, core.ShareIdle, 200)
		o := &testOwner{}
		var live []*Page
		for _, op := range ops {
			switch {
			case op%3 != 0 || len(live) == 0: // allocate
				spu := us[int(op)%3].ID()
				if p := m.Allocate(spu, Anon, o); p != nil {
					live = append(live, p)
				}
			default: // free
				i := int(op) % len(live)
				// Skip pages the pager already evicted behind our back.
				if live[i].spuIdx >= 0 {
					m.Free(live[i])
				}
				live = append(live[:i], live[i+1:]...)
			}
			if m.UsedPages()+m.FreePages() != m.TotalPages() {
				return false
			}
			var charged float64
			for _, s := range spus.All() {
				charged += s.Used(core.Memory)
			}
			if int(charged) != m.UsedPages() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
