package mem

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/snap"
)

// AuditInvariants extends the fast conservation checks with the
// memory-isolation invariant of §3.2: a user SPU that is not in
// unconstrained ShareAll mode never holds more frames than its allowed
// level, beyond the frames it cannot release yet — eviction write-backs
// still in flight and pinned pages (in-flight disk IO). The whole check
// runs off the incrementally-maintained per-SPU lists and counters, so
// it is O(#SPUs) and allocation-free — cheap enough for every tick and
// sharing boundary. AuditDeep adds the O(pages) scan that proves those
// incremental structures exact.
func (m *Manager) AuditInvariants() error {
	if err := m.auditFast(); err != nil {
		return err
	}
	return m.auditIsolation()
}

// AuditDeep is AuditInvariants on top of the exhaustive O(pages) Audit
// scan — the final sweep and the stress harness use it to prove the
// incremental counters never drifted from ground truth.
func (m *Manager) AuditDeep() error {
	if err := m.Audit(); err != nil {
		return err
	}
	return m.auditIsolation()
}

func (m *Manager) auditIsolation() error {
	for _, s := range m.spus.Users() {
		if s.Policy() == core.ShareAll {
			continue
		}
		pinned := 0
		if i := int(s.ID()); i < len(m.bySPU) {
			pinned = m.bySPU[i].pinned
		}
		slack := float64(m.inFlight + pinned)
		if over := s.Used(core.Memory) - s.Allowed(core.Memory) - slack; over > 0.5 {
			return fmt.Errorf("mem audit: spu%d uses %.0f frames, above its allowed %.0f (+%.0f unreleasable)",
				s.ID(), s.Used(core.Memory), s.Allowed(core.Memory), slack)
		}
	}
	return nil
}

// Snapshot writes the manager's state for checkpoint comparison: frame
// totals, counters, and per-SPU owned/dirty/pinned page counts.
func (m *Manager) Snapshot(enc *snap.Encoder) {
	enc.Section("mem")
	enc.Int("total", int64(m.total))
	enc.Int("in_use", int64(m.linked))
	enc.Int("in_flight", int64(m.inFlight))
	enc.Int("waiters", int64(len(m.waiters)))
	enc.Int("allocations", m.Stat.Allocations)
	enc.Int("denials", m.Stat.Denials)
	enc.Int("evictions", m.Stat.Evictions)
	enc.Int("dirty_writes", m.Stat.DirtyWrites)
	enc.Int("pageout_retries", m.Stat.PageoutRetries)
	enc.Int("retags", m.Stat.Retags)
	owned := make(map[int]int64)
	dirty := make(map[int]int64)
	pinned := make(map[int]int64)
	for id := range m.bySPU {
		s := &m.bySPU[id]
		if len(s.list) > 0 {
			owned[id] = int64(len(s.list))
		}
		if s.pinned > 0 {
			pinned[id] = int64(s.pinned)
		}
		for _, p := range s.list {
			if p.dirty {
				dirty[id]++
			}
		}
	}
	enc.SortedInts("owned_spu", owned)
	enc.SortedInts("dirty_spu", dirty)
	enc.SortedInts("pinned_spu", pinned)
}

// auditBoundary invokes the audit hook, if installed, at a sharing
// boundary: a loan revocation, a policy adjustment, or a frame-count
// change from fault injection.
func (m *Manager) auditBoundary(reason string) {
	if m.AuditHook != nil {
		m.AuditHook(reason)
	}
}
