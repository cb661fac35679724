package mem

import (
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// reclaimRig replays one randomized op sequence against a manager and
// checks every victim the LRU heaps pick against the scan reference:
// at each eviction (the rig owns every page, so PageEvicted sees the
// victim before the manager changes any state) and, after every op,
// the pick of every SPU and the machine-wide pick.
type reclaimRig struct {
	t     testing.TB
	eng   *sim.Engine
	m     *Manager
	users []core.SPUID
	rng   *sim.RNG
	live  []*Page // pages handed to the rig and not yet seen unlinked

	failProb float64 // pageout write failure probability
	removed  int     // frames taken out by RemoveFrames and not returned

	evictions int // victims checked at eviction time
}

// PageEvicted checks the victim against the reference. The manager
// calls it between the pick and the eviction, so the victim must be
// what either scan-based path would have picked then: the SPU's own
// LRU page (evictFromSPU) or the machine's (evictAny).
func (r *reclaimRig) PageEvicted(p *Page) {
	r.evictions++
	if p != refVictimAny(r.m) && p != refVictimFromSPU(r.m, p.SPU) {
		r.t.Fatalf("evicted page seq %d of spu%d (lastUse %v, dirty=%v); reference picks spu %v, any %v",
			p.seq, p.SPU, p.lastUse, p.dirty, describe(refVictimFromSPU(r.m, p.SPU)), describe(refVictimAny(r.m)))
	}
}

func describe(p *Page) any {
	if p == nil {
		return "none"
	}
	return struct {
		Seq     uint64
		SPU     core.SPUID
		LastUse sim.Time
		Dirty   bool
	}{p.seq, p.SPU, p.lastUse, p.dirty}
}

// newReclaimRig builds the machine flags selects: 1-3 user SPUs, their
// memory policy, 24-96 frames, and the pageout mode (none: dirty pages
// free at once; reliable; or failing 30% of writes, which retry).
func newReclaimRig(t testing.TB, flags uint8, seed uint64) *reclaimRig {
	f := int(flags)
	policy := [...]core.Policy{core.ShareIdle, core.ShareNone, core.ShareAll}[(f/3)%3]
	_, _, m, us := rig(1+f%3, policy, 24+24*((f/9)%4))
	r := &reclaimRig{t: t, eng: m.eng, m: m, rng: sim.NewRNG(seed)}
	for _, u := range us {
		r.users = append(r.users, u.ID())
	}
	if mode := (f / 36) % 4; mode > 0 {
		if mode >= 2 {
			r.failProb = 0.3
		}
		m.SetPageout(func(p *Page, done func(ok bool)) {
			ok := r.rng.Float64() >= r.failProb
			r.eng.CallAfter(sim.Time(1+r.rng.Intn(4))*sim.Millisecond, "test.pageout", func() { done(ok) })
		})
	}
	return r
}

func (r *reclaimRig) user(a byte) core.SPUID { return r.users[int(a)%len(r.users)] }

// page returns a live page chosen by a, or nil when there is none.
func (r *reclaimRig) page(a byte) *Page {
	if len(r.live) == 0 {
		return nil
	}
	return r.live[int(a)%len(r.live)]
}

func (r *reclaimRig) take(p *Page) { r.live = append(r.live, p) }

// step applies one op (kind b, argument a), then checks the manager.
func (r *reclaimRig) step(b, a byte) {
	m := r.m
	switch b % 14 {
	case 0, 1: // allocate: mostly anon, some cache and kernel pages, half dirty
		kind := Anon
		switch a % 7 {
		case 0:
			kind = Kernel
		case 1, 2:
			kind = Cache
		}
		if p := m.Allocate(r.user(a/7), kind, r); p != nil {
			m.SetDirty(p, a&0x80 != 0)
			r.take(p)
		}
	case 2: // a blocking request: reclaim runs, the page may come later
		m.Request(r.user(a), Anon, r, r.take)
	case 3:
		if p := r.page(a); p != nil {
			m.Release(p)
		}
	case 4: // touch by the owner (or any user, for kernel and shared pages)
		if p := r.page(a); p != nil {
			by := p.SPU
			if !by.IsUser() {
				by = r.user(a)
			}
			m.Touch(p, by)
		}
	case 5: // touch by some user SPU: a cross-SPU touch retags to shared
		if p := r.page(a); p != nil {
			m.Touch(p, r.user(a/3))
		}
	case 6: // touchAll: one SPU's whole resident set at one instant
		u := r.user(a)
		for _, p := range r.live {
			if p.SPU == u && (a&0x80 == 0 || p.seq%2 == 0) {
				m.Touch(p, u)
			}
		}
	case 7:
		if p := r.page(a); p != nil {
			m.SetDirty(p, a&1 == 0)
		}
	case 8:
		if p := r.page(a); p != nil {
			m.SetPinned(p, a&1 == 0)
		}
	case 9:
		m.PolicyTick()
	case 10: // lose or regain frames (fault injection)
		if n := 1 + int(a%8); a&0x80 == 0 && m.TotalPages() > 2*n {
			m.RemoveFrames(n)
			r.removed += n
		} else if r.removed > 0 {
			m.AddFrames(r.removed)
			r.removed = 0
		}
	case 11, 12: // time passes: pageouts land, fail, and retry
		r.eng.RunUntil(r.eng.Now() + sim.Time(1+int(a%8))*sim.Millisecond)
	case 13: // direct eviction through one path or the other
		if a&1 == 0 {
			u := r.user(a / 2)
			if want := refVictimFromSPU(m, u); m.evictFromSPU(u) != (want != nil) {
				r.t.Fatalf("evictFromSPU(spu%d) disagrees with the reference on whether a victim exists", u)
			}
		} else if want := refVictimAny(m); m.evictAny() != (want != nil) {
			r.t.Fatal("evictAny disagrees with the reference on whether a victim exists")
		}
	}
	r.prune()
	r.check()
}

// prune forgets pages the manager no longer holds, keeping a few so ops
// on unlinked pages are exercised too.
func (r *reclaimRig) prune() {
	keep := r.live[:0]
	for _, p := range r.live {
		if p.spuIdx >= 0 || p.seq%8 == 0 {
			keep = append(keep, p)
		}
	}
	clear(r.live[len(keep):])
	r.live = keep
}

// check runs the deep audit and compares every pick with the reference.
func (r *reclaimRig) check() {
	m := r.m
	if err := m.Audit(); err != nil {
		r.t.Fatal(err)
	}
	for i := range m.bySPU {
		id := core.SPUID(i)
		if got, want := m.victimFromSPU(id), refVictimFromSPU(m, id); got != want {
			r.t.Fatalf("victimFromSPU(spu%d) = %v, reference %v", id, describe(got), describe(want))
		}
	}
	if got, want := m.victimAny(), refVictimAny(m); got != want {
		r.t.Fatalf("victimAny = %v, reference %v", describe(got), describe(want))
	}
}

// run replays ops as (kind, argument) pairs, then lets every write-back
// land and checks the drained manager.
func (r *reclaimRig) run(ops []byte) {
	for i := 0; i+1 < len(ops); i += 2 {
		r.step(ops[i], ops[i+1])
	}
	r.eng.Run()
	r.prune()
	r.check()
}

// TestReclaimMatchesReference replays random op sequences over every
// machine shape and requires the heaps to pick the scan's victim on
// every eviction and after every op.
func TestReclaimMatchesReference(t *testing.T) {
	gen := sim.NewRNG(42)
	var evictions, dirtyWrites, retries, retags int64
	for script := 0; script < 432; script++ {
		flags := uint8(script % 144)
		ops := make([]byte, 1000)
		for i := range ops {
			ops[i] = byte(gen.Uint64())
		}
		r := newReclaimRig(t, flags, gen.Uint64())
		r.run(ops)
		if int64(r.evictions) != r.m.Stat.Evictions {
			t.Fatalf("flags %d: checked %d evictions, manager made %d", flags, r.evictions, r.m.Stat.Evictions)
		}
		evictions += r.m.Stat.Evictions
		dirtyWrites += r.m.Stat.DirtyWrites
		retries += r.m.Stat.PageoutRetries
		retags += r.m.Stat.Retags
	}
	// The scripts must reach what they are meant to cover.
	if evictions < 15000 || dirtyWrites < 1000 || retries < 200 || retags < 2000 {
		t.Fatalf("weak coverage: %d evictions, %d dirty writes, %d pageout retries, %d retags",
			evictions, dirtyWrites, retries, retags)
	}
}

// FuzzReclaim is the same differential check on fuzzed machines and op
// sequences.
func FuzzReclaim(f *testing.F) {
	burst := []byte{0, 0, 0, 1, 1, 2, 7, 0, 6, 0, 11, 3, 2, 1, 2, 0, 13, 1, 13, 2, 8, 0, 5, 1, 10, 3, 9, 0, 12, 7, 2, 2}
	f.Add(uint8(0), uint64(1), burst)   // ShareIdle, 1 user, 24 frames, no pageout
	f.Add(uint8(40), uint64(2), burst)  // ShareNone, 2 users, 24 frames, reliable pageout
	f.Add(uint8(83), uint64(3), burst)  // ShareIdle, 3 users, 48 frames, failing pageout
	f.Add(uint8(143), uint64(4), burst) // ShareAll, 3 users, 96 frames, failing pageout
	f.Fuzz(func(t *testing.T, flags uint8, seed uint64, ops []byte) {
		if len(ops) > 2*1000 {
			ops = ops[:2*1000]
		}
		newReclaimRig(t, flags, seed).run(ops)
	})
}
