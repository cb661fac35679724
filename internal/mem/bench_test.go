package mem

import (
	"testing"
	"unsafe"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// BenchmarkAllocateFree measures the uncontended allocation path.
func BenchmarkAllocateFree(b *testing.B) {
	_, _, m, us := rig(1, core.ShareIdle, 1<<16)
	o := &testOwner{}
	for i := 0; i < b.N; i++ {
		p := m.Allocate(us[0].ID(), Anon, o)
		if p == nil {
			b.Fatal("allocation failed")
		}
		m.Free(p)
	}
}

// BenchmarkReplacementChurn measures the reclaim path: an SPU at its
// limit faulting pages in a loop (every request evicts its own LRU).
func BenchmarkReplacementChurn(b *testing.B) {
	_, _, m, us := rig(2, core.ShareNone, 2048) // 1024 per SPU
	o := &testOwner{}
	for i := 0; i < 1024; i++ {
		m.Allocate(us[0].ID(), Anon, o)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := false
		m.Request(us[0].ID(), Anon, o, func(*Page) { got = true })
		if !got {
			b.Fatal("request blocked (pageout path engaged unexpectedly)")
		}
	}
}

// BenchmarkPolicyTick measures the sharing-policy pass over a populated
// machine.
func BenchmarkPolicyTick(b *testing.B) {
	_, _, m, us := rig(8, core.ShareIdle, 1<<14)
	o := &testOwner{}
	for i := range us {
		for j := 0; j < 1000; j++ {
			m.Allocate(us[i].ID(), Anon, o)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PolicyTick()
	}
}

// TestReclaimZeroAlloc guards the reclaim fast path: once the heaps are
// warm, evicting a clean page — including the key refreshes a whole
// resident set touched at one instant leaves behind — allocates nothing
// while Metrics and Trace are off.
func TestReclaimZeroAlloc(t *testing.T) {
	eng, _, m, us := rig(2, core.ShareNone, 4096) // 2048 per SPU
	id := us[0].ID()
	var pages []*Page
	for i := 0; i < 2048; i++ {
		pages = append(pages, m.Allocate(id, Anon, nil))
	}
	eng.RunUntil(sim.Millisecond)
	for _, p := range pages {
		m.Touch(p, id) // every key goes stale at one instant
	}
	for name, evict := range map[string]func() bool{
		"evictFromSPU": func() bool { return m.evictFromSPU(id) },
		"evictAny":     m.evictAny,
	} {
		if allocs := testing.AllocsPerRun(500, func() {
			if !evict() {
				t.Fatal("nothing to evict")
			}
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocations per clean eviction, want 0", name, allocs)
		}
	}
}

// BenchmarkReplacementChurnDeep is BenchmarkReplacementChurn with one SPU
// holding 16k pages, touched in batches as a process's resident set is,
// so the victim search's cost in the list size shows.
func BenchmarkReplacementChurnDeep(b *testing.B) {
	const n = 1 << 14
	eng, _, m, us := rig(2, core.ShareNone, 2*n)
	id := us[0].ID()
	pages := make([]*Page, 0, n)
	for i := 0; i < n; i++ {
		pages = append(pages, m.Allocate(id, Anon, nil))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			eng.RunUntil(eng.Now() + sim.Millisecond)
			for j := i % 4; j < len(pages); j += 4 {
				m.Touch(pages[j], id)
			}
		}
		got := false
		m.Request(id, Anon, nil, func(p *Page) { pages[i%n], got = p, true })
		if !got {
			b.Fatal("request blocked")
		}
	}
}

// BenchmarkEvictAnyDeep measures global reclaim: eight ShareAll SPUs
// holding 2k pages each fill the machine, and every request evicts the
// machine-wide LRU page.
func BenchmarkEvictAnyDeep(b *testing.B) {
	const spus, per = 8, 2048
	_, _, m, us := rig(spus, core.ShareAll, spus*per)
	for i := 0; i < per; i++ {
		for _, u := range us {
			m.Allocate(u.ID(), Anon, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := false
		m.Request(us[i%spus].ID(), Anon, nil, func(*Page) { got = true })
		if !got {
			b.Fatal("request blocked")
		}
	}
}

// TestPageSizeClass keeps Page within the 80-byte allocation size class
// it had before the LRU heap fields were added, so the simulator's
// resident pages cost no more heap.
func TestPageSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Page{}); n > 80 {
		t.Fatalf("Page is %d bytes; more than 80 moves it to a larger size class", n)
	}
}
