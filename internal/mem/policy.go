package mem

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/trace"
)

// DefaultPolicyPeriod is how often the kernel runs the memory sharing
// policy. The paper checks SPU page usage "periodically"; 100 ms is fine
// grained enough to track the workloads' phase changes.
const DefaultPolicyPeriod = 100 // milliseconds; the kernel owns the ticker

// PolicyTick runs one round of the §3.2 sharing policy:
//
//   - Re-divide the frames left over by the kernel and shared SPUs among
//     user SPUs as their entitlements, preserving outstanding loans
//     (loans are temporary but persist until revoked).
//   - Revoke loans when the free pool has been eaten below the Reserve
//     Threshold or an SPU below its entitlement is under pressure: the
//     borrowers' allowed levels drop back toward their entitlements and
//     the reclaim path evicts the excess (writing back dirty pages —
//     the revocation cost the reserve exists to hide).
//   - Lend idle resources: free pages above the Reserve Threshold are
//     split equally among ShareIdle SPUs under memory pressure, raising
//     their allowed levels.
//
// SPUs with the ShareNone policy are never lent anything; ShareAll SPUs
// ignore limits entirely, so the tick is a no-op for them.
func (m *Manager) PolicyTick() {
	m.redivide()

	// Revocation triggers: the reserve has been consumed, or an SPU that
	// is under its entitlement was denied memory since the last tick.
	deficit := m.ReservePages() - m.FreePages()
	lenderPressure := false
	for id := range m.bySPU {
		if !m.bySPU[id].pressure {
			continue
		}
		s := m.spus.Get(core.SPUID(id))
		if s.Used(core.Memory) < s.Entitled(core.Memory) {
			lenderPressure = true
		}
	}
	if deficit > 0 && m.hasLoans() {
		m.revokeLoans(deficit)
	} else if lenderPressure {
		m.revokeLoans(m.ReservePages())
	}

	// Lending: split the free pages above the reserve among the needy.
	var needy []*core.SPU
	for _, s := range m.spus.ActiveUsers() {
		if s.Policy() != core.ShareIdle {
			continue
		}
		atLimit := s.Used(core.Memory) >= s.Allowed(core.Memory)-1
		if m.Pressured(s.ID()) || atLimit {
			needy = append(needy, s)
		}
	}
	excess := m.FreePages() - m.ReservePages()
	if excess > 0 && len(needy) > 0 {
		share := excess / len(needy)
		rem := excess % len(needy)
		for i, s := range needy {
			give := share
			if i < rem {
				give++
			}
			if give > 0 {
				s.SetAllowed(core.Memory, s.Allowed(core.Memory)+float64(give))
				if m.Trace != nil {
					m.Trace.Emitf(trace.Policy, fmt.Sprintf("spu%d", s.ID()), "lend",
						"%d pages (allowed now %.0f)", give, s.Allowed(core.Memory))
				}
			}
		}
	}

	for id := range m.bySPU {
		m.bySPU[id].pressure = false
	}

	// Enforce the adjusted limits and unblock anyone who can proceed.
	m.kickReclaim()
	m.serveWaiters()
	m.auditBoundary("mempolicy")
}

// redivide recomputes entitlements from the frames not used by the
// kernel and shared SPUs, preserving each SPU's outstanding loan (its
// allowed level never drops below the new entitlement, and keeps any
// excess it had been granted).
func (m *Manager) redivide() {
	users := m.spus.ActiveUsers()
	if cap(m.prevAllowed) < len(users) {
		m.prevAllowed = make([]float64, len(users))
	}
	prevAllowed := m.prevAllowed[:len(users)]
	for i, s := range users {
		prevAllowed[i] = s.Allowed(core.Memory)
	}
	m.DivideAmongSPUs()
	for i, s := range users {
		if prevAllowed[i] > s.Allowed(core.Memory) && s.Policy() == core.ShareIdle {
			s.SetAllowed(core.Memory, prevAllowed[i])
		}
	}
}

// hasLoans reports whether any ShareIdle SPU currently holds an allowed
// level above its entitlement.
func (m *Manager) hasLoans() bool {
	for _, s := range m.spus.Users() {
		if s.Policy() == core.ShareIdle && s.Allowed(core.Memory) > s.Entitled(core.Memory) {
			return true
		}
	}
	return false
}
