package mem

import "perfiso/internal/core"

// This file keeps the linear-scan victim search the per-SPU LRU heaps
// replaced, as the reference the differential tests
// (TestReclaimMatchesReference, FuzzReclaim) check the heaps against.
// The functions are the original scan code, reading the same per-SPU
// page lists. The original scan also skipped pages mid-eviction; those
// are unlinked before their write-back starts, so no list holds one.

// lruBefore orders eviction candidates: least-recently-used first, ties
// broken by allocation order so a scan's winner does not depend on the
// incidental layout of the page list.
func lruBefore(a, b *Page) bool {
	return a.lastUse < b.lastUse || (a.lastUse == b.lastUse && a.seq < b.seq)
}

// scanVictims finds the clean and dirty LRU candidates in one SPU's page
// list, merging with the best found so far (for multi-list scans).
func scanVictims(l []*Page, victim, dirtyVictim *Page) (*Page, *Page) {
	for _, p := range l {
		if p.pinned {
			continue
		}
		if p.dirty {
			if dirtyVictim == nil || lruBefore(p, dirtyVictim) {
				dirtyVictim = p
			}
			continue
		}
		if victim == nil || lruBefore(p, victim) {
			victim = p
		}
	}
	return victim, dirtyVictim
}

// preferClean is the clean-before-dirty choice the scan-based
// evictVictim made.
func preferClean(victim, dirtyVictim *Page) *Page {
	if victim == nil {
		return dirtyVictim
	}
	return victim
}

// refVictimFromSPU is the scan-based evictFromSPU's choice: an
// O(pages of that SPU) scan of its own list.
func refVictimFromSPU(m *Manager, spu core.SPUID) *Page {
	if int(spu) >= len(m.bySPU) {
		return nil
	}
	return preferClean(scanVictims(m.bySPU[spu].list, nil, nil))
}

// refVictimAny is the scan-based evictAny's choice: every SPU's list
// scanned in SPU-id order.
func refVictimAny(m *Manager) *Page {
	var victim, dirtyVictim *Page
	for i := range m.bySPU {
		victim, dirtyVictim = scanVictims(m.bySPU[i].list, victim, dirtyVictim)
	}
	return preferClean(victim, dirtyVictim)
}
