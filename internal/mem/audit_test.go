package mem

import (
	"strings"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

func TestKindString(t *testing.T) {
	if Anon.String() != "anon" || Cache.String() != "cache" || Kernel.String() != "kernel" {
		t.Fatal("kind names")
	}
}

func TestReleaseIdempotent(t *testing.T) {
	_, _, m, us := rig(1, core.ShareIdle, 10)
	p := m.Allocate(us[0].ID(), Anon, nil)
	m.Release(p)
	if m.UsedPages() != 0 {
		t.Fatal("Release did not free")
	}
	m.Release(p) // second release is a no-op, not a panic
	if m.UsedPages() != 0 {
		t.Fatal("double Release corrupted state")
	}
}

func TestPressuredFlag(t *testing.T) {
	_, _, m, us := rig(2, core.ShareNone, 20) // 10 pages each
	o := &testOwner{}
	for i := 0; i < 10; i++ {
		p := m.Allocate(us[0].ID(), Anon, o)
		m.SetPinned(p, true)
	}
	if m.Pressured(us[0].ID()) {
		t.Fatal("pressure before any denial")
	}
	m.Allocate(us[0].ID(), Anon, o) // denied
	if !m.Pressured(us[0].ID()) {
		t.Fatal("denial did not set pressure")
	}
	m.PolicyTick()
	if m.Pressured(us[0].ID()) {
		t.Fatal("policy tick did not clear pressure")
	}
}

func TestAuditCleanState(t *testing.T) {
	_, _, m, us := rig(2, core.ShareIdle, 100)
	o := &testOwner{}
	var pages []*Page
	for i := 0; i < 30; i++ {
		pages = append(pages, m.Allocate(us[i%2].ID(), Anon, o))
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pages[:10] {
		m.Free(p)
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestAuditDetectsCorruption(t *testing.T) {
	_, spus, m, us := rig(1, core.ShareIdle, 100)
	m.Allocate(us[0].ID(), Anon, nil)
	// Corrupt the books: charge without a page.
	spus.Get(us[0].ID()).Charge(core.Memory, 5)
	err := m.Audit()
	if err == nil {
		t.Fatal("audit missed a phantom charge")
	}
	if !strings.Contains(err.Error(), "mem audit") {
		t.Fatalf("error %v lacks context", err)
	}
}

func TestAuditDetectsUnderCharge(t *testing.T) {
	_, spus, m, us := rig(1, core.ShareIdle, 100)
	m.Allocate(us[0].ID(), Anon, nil)
	m.Allocate(us[0].ID(), Anon, nil)
	spus.Get(us[0].ID()).Charge(core.Memory, -1) // lost a charge
	if m.Audit() == nil {
		t.Fatal("audit missed a missing charge")
	}
}

// Exercise the global-fallback reclaim branch: memory exhausted by the
// kernel SPU (which has no allowed limit), waiters from user SPUs.
func TestGlobalFallbackReclaim(t *testing.T) {
	_, _, m, us := rig(1, core.ShareAll, 50)
	o := &testOwner{}
	for i := 0; i < 50; i++ {
		m.Allocate(core.KernelID, Kernel, o)
	}
	var got *Page
	m.Request(us[0].ID(), Anon, o, func(p *Page) { got = p })
	if got == nil {
		t.Fatal("global fallback did not reclaim a kernel page for the waiter")
	}
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

// hasLoans edge: ShareNone SPUs never count as borrowers.
func TestHasLoansIgnoresShareNone(t *testing.T) {
	_, _, m, us := rig(1, core.ShareNone, 100)
	us[0].SetEntitled(core.Memory, 10)
	// Raise allowed above entitled directly (simulating stale state).
	us[0].SetAllowed(core.Memory, 20)
	if m.hasLoans() {
		t.Fatal("ShareNone SPU counted as borrower")
	}
}

// TestAuditCatchesCorruptLRU plants one LRU-index corruption at a time in
// a healthy manager and requires the deep Audit to name each; the ones
// that change a heap's size must also trip the O(#SPUs) fast audit.
func TestAuditCatchesCorruptLRU(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(m *Manager, s *spuPages)
		want    string
		fast    bool // auditFast must catch it too
	}{
		{"key after last use", func(m *Manager, s *spuPages) {
			s.clean[0].key = s.clean[0].lastUse + 1
		}, "after its last use", false},
		{"heap order", func(m *Manager, s *spuPages) {
			h, last := s.clean, len(s.clean)-1
			h[0], h[last] = h[last], h[0]
			h[0].hidx, h[last].hidx = 0, last
		}, "heap order broken", false},
		{"stale hidx", func(m *Manager, s *spuPages) {
			s.clean[3].hidx = 4
		}, "is not in its LRU heap", false},
		{"pinned page left indexed", func(m *Manager, s *spuPages) {
			s.clean[2].pinned = true
			s.pinned++
		}, "pinned=true", true},
		{"dirty flag flipped in place", func(m *Manager, s *spuPages) {
			s.clean[1].dirty = true
		}, "is not in its LRU heap", false},
		{"page dropped from its heap", func(m *Manager, s *spuPages) {
			s.dirty.remove(s.dirty[0])
		}, "is not in its LRU heap", true},
		{"unlinked page in a heap", func(m *Manager, s *spuPages) {
			s.clean.push(&Page{SPU: s.clean[0].SPU, spuIdx: -1})
		}, "not in its list", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, _, m, us := rig(2, core.ShareIdle, 100)
			id := us[0].ID()
			for i := 0; i < 20; i++ {
				p := m.Allocate(id, Anon, nil)
				m.SetDirty(p, i%4 == 0)
				m.SetPinned(p, i%7 == 0)
				if i%2 == 0 {
					eng.RunUntil(eng.Now() + sim.Millisecond)
					m.Touch(p, id)
				}
			}
			if err := m.Audit(); err != nil {
				t.Fatalf("healthy manager: %v", err)
			}
			c.corrupt(m, &m.bySPU[id])
			err := m.Audit()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Audit = %v, want an error containing %q", err, c.want)
			}
			if c.fast && m.AuditInvariants() == nil {
				t.Fatal("AuditInvariants missed a heap-size change")
			}
		})
	}
}
