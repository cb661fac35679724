package disk

import (
	"fmt"
	"reflect"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/profile"
	"perfiso/internal/sim"
)

// pickScript is one randomized disk run: a configuration and a timed
// list of submissions and share changes, replayed through both the
// lane-indexed Disk and the linear-scan refDisk.
type pickScript struct {
	policy    func() Scheduler
	merge     bool
	failProb  float64
	failSeed  uint64
	nUsers    int
	actions   []pickAction
	maxResubs int
}

type pickAction struct {
	at      sim.Time
	setW    float64 // > 0: SetShare(spu, setW) instead of a submission
	spu     core.SPUID
	kind    Kind
	sector  int64
	count   int
	charges []Charge
}

// completion is what one Done callback saw.
type completion struct {
	id                int
	sector            int64
	count             int
	started, finished sim.Time
	stolenBy          core.SPUID
	failed            bool
	queued            []int // QueuedFor every SPU at the callback
}

// pickDisk is the surface both disks share.
type pickDisk interface {
	Submit(*Request)
	SetShare(core.SPUID, float64)
	QueuedFor(core.SPUID) int
}

// genPickScript turns fuzz input into a script. flags picks the PIso
// threshold (bits 0-1: 0, the default, 1e12), merging (bit 2), failed
// transfers (bit 3) and a third user SPU (bit 4). depth requests are
// submitted at time 0 by the user SPUs; then every three bytes of ops
// add one action: a user or shared submission at a random sector, one
// that extends or prepends to the SPU's previous request (a merge
// candidate), or a share change.
func genPickScript(policy, flags uint8, seed uint64, depth uint16, ops []byte) *pickScript {
	s := &pickScript{
		merge:     flags&4 != 0,
		nUsers:    2 + int(flags>>4&1),
		failSeed:  seed ^ 0x9e3779b97f4a7c15,
		maxResubs: 3,
	}
	if flags&8 != 0 {
		s.failProb = 0.2
	}
	threshold := []float64{0, DefaultBWThreshold, 1e12, DefaultBWThreshold}[flags&3]
	switch policy % 3 {
	case 0:
		s.policy = func() Scheduler { return NewPos() }
	case 1:
		s.policy = func() Scheduler { return NewIso() }
	default:
		s.policy = func() Scheduler { return &PIso{Threshold: threshold} }
	}
	rng := sim.NewRNG(seed)
	total := HP97560().TotalSectors()
	last := map[core.SPUID]pickAction{}
	user := func(b byte) core.SPUID { return core.FirstUserID + core.SPUID(int(b)%s.nUsers) }
	add := func(a pickAction) {
		s.actions = append(s.actions, a)
		if a.setW == 0 {
			last[a.spu] = a
		}
	}
	random := func(at sim.Time, spu core.SPUID, count int) pickAction {
		return pickAction{at: at, spu: spu, kind: Kind(rng.Intn(2)), count: count,
			sector: rng.Int63n(total - int64(count))}
	}
	for i := 0; i < int(depth); i++ {
		add(random(0, user(byte(rng.Intn(256))), 1+rng.Intn(64)))
	}
	var at sim.Time
	for i := 0; i+2 < len(ops); i += 3 {
		op, gap, size := ops[i], ops[i+1], ops[i+2]
		at += sim.Time(gap) * sim.Millisecond / 2
		count := 1 + int(size)%64
		spu := user(op >> 4)
		switch op % 8 {
		case 0, 1, 2:
			add(random(at, spu, count))
		case 3: // shared daemon write, charged back to two user SPUs
			a := random(at, core.SharedID, count)
			a.kind = Write
			a.charges = []Charge{{spu, count / 2}, {user(op>>4 + 1), count - count/2}}
			add(a)
		case 4: // shared request with no charge-back list
			add(random(at, core.SharedID, count))
		case 5, 6: // extend (5) or prepend to (6) the SPU's previous request
			prev, ok := last[spu]
			if !ok {
				add(random(at, spu, count))
				continue
			}
			a := prev
			a.at, a.count, a.charges = at, count, nil
			if op%8 == 5 {
				a.sector = prev.sector + int64(prev.count)
			} else {
				a.sector = prev.sector - int64(count)
			}
			if a.sector < 0 || a.sector+int64(count) > total {
				a = random(at, spu, count)
			}
			add(a)
		case 7:
			add(pickAction{at: at, spu: spu, setW: 0.5 + float64(size%8)})
		}
	}
	return s
}

// runPickScript replays s on a fresh disk (the lane-indexed one, or the
// reference if ref is set) with a profiler attached, auditing the lane
// disk at every completion.
func runPickScript(t testing.TB, s *pickScript, ref bool) ([]completion, []profile.Theft) {
	eng := sim.NewEngine()
	prof := profile.New(eng, 0)
	var d pickDisk
	var audit func() error
	if ref {
		rd := newRefDisk(eng, HP97560(), s.policy(), 0)
		rd.Merge, rd.Profile = s.merge, prof
		if s.failProb > 0 {
			rd.SetFault(s.failProb, sim.NewRNG(s.failSeed))
		}
		d = rd
	} else {
		nd := New(eng, HP97560(), s.policy(), 0)
		nd.Merge, nd.Profile = s.merge, prof
		if s.failProb > 0 {
			nd.SetFault(s.failProb, sim.NewRNG(s.failSeed))
		}
		d, audit = nd, nd.Audit
	}
	var log []completion
	for id, a := range s.actions {
		id, a := id, a
		eng.At(a.at, "script", func() {
			if a.setW > 0 {
				d.SetShare(a.spu, a.setW)
				return
			}
			resubs := 0
			r := &Request{Kind: a.kind, Sector: a.sector, Count: a.count, SPU: a.spu, Charges: a.charges}
			r.Done = func(r *Request) {
				c := completion{id: id, sector: r.Sector, count: r.Count, started: r.Started,
					finished: r.Finished, stolenBy: r.StolenBy, failed: r.Failed}
				for spu := core.KernelID; spu < core.FirstUserID+core.SPUID(s.nUsers); spu++ {
					c.queued = append(c.queued, d.QueuedFor(spu))
				}
				log = append(log, c)
				if audit != nil {
					if err := audit(); err != nil {
						t.Fatalf("after completion %d: %v", len(log), err)
					}
				}
				if r.Failed && resubs < s.maxResubs {
					resubs++
					eng.CallAfter(2*sim.Millisecond, "resubmit", func() {
						r.Backoff += 2 * sim.Millisecond
						d.Submit(r)
					})
				}
			}
			d.Submit(r)
		})
	}
	eng.Run()
	return log, prof.Interference()
}

// checkPickScript runs s through both disks and reports the first
// difference in service order, per-request timing and StolenBy, queue
// depths, or the interference matrix.
func checkPickScript(t testing.TB, s *pickScript) {
	t.Helper()
	got, gotTheft := runPickScript(t, s, false)
	want, wantTheft := runPickScript(t, s, true)
	for i := 0; i < len(got) && i < len(want); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("completion %d differs:\n lanes     %+v\n reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d completions, reference %d", len(got), len(want))
	}
	if !reflect.DeepEqual(gotTheft, wantTheft) {
		t.Fatalf("interference matrix differs:\n lanes     %v\n reference %v", gotTheft, wantTheft)
	}
}

// TestDiskPickMatchesReference drives seeded random scripts through
// every policy, PIso threshold, merge and fault setting and checks the
// lane-indexed disk against the linear-scan reference.
func TestDiskPickMatchesReference(t *testing.T) {
	for policy := uint8(0); policy < 3; policy++ {
		for flags := uint8(0); flags < 32; flags++ {
			if policy != 2 && flags&3 != 1 {
				continue // the threshold only matters to PIso
			}
			t.Run(fmt.Sprintf("policy%d/flags%d", policy, flags), func(t *testing.T) {
				for seed := uint64(1); seed <= 3; seed++ {
					rng := sim.NewRNG(seed * 7919)
					ops := make([]byte, 3*300)
					for i := range ops {
						ops[i] = byte(rng.Intn(256))
					}
					checkPickScript(t, genPickScript(policy, flags, seed, uint16(20*seed), ops))
				}
			})
		}
	}
}

// FuzzDiskPick is the fuzzing form of TestDiskPickMatchesReference. Run
// it with
//
//	go test -run '^$' -fuzz FuzzDiskPick -fuzztime 20s -fuzzminimizetime 1x ./internal/disk
//
// Inputs near the 2,000-deep seed take about a second each under the
// fuzzer's instrumentation, so the default minimization budget (60 s
// per new input) would stall the run on them.
func FuzzDiskPick(f *testing.F) {
	burst := []byte{0, 0, 10, 85, 4, 40, 6, 1, 8, 53, 0, 16, 7, 2, 3, 3, 9, 60, 4, 0, 5, 6, 0, 33}
	// A 2,000-deep two-SPU queue under PIso at the default threshold.
	f.Add(uint8(2), uint8(1), uint64(1), uint16(2000), burst)
	f.Add(uint8(2), uint8(0), uint64(2), uint16(64), burst)  // threshold 0
	f.Add(uint8(2), uint8(30), uint64(3), uint16(64), burst) // 1e12, merge, faults, 3 SPUs
	f.Add(uint8(0), uint8(12), uint64(4), uint16(64), burst) // Pos, merge, faults
	f.Add(uint8(1), uint8(28), uint64(5), uint16(64), burst) // Iso, merge, faults, 3 SPUs
	f.Fuzz(func(t *testing.T, policy, flags uint8, seed uint64, depth uint16, ops []byte) {
		if len(ops) > 3*2000 {
			ops = ops[:3*2000]
		}
		checkPickScript(t, genPickScript(policy, flags, seed, depth%2049, ops))
	})
}
