package fs

import (
	"fmt"
	"slices"
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/mem"
	"perfiso/internal/sim"
)

// flushRig replays one randomized op sequence against a file system and
// checks every Flush against the reference scan: as a Flush starts, the
// rig computes the clusters the scan would write, and each cluster the
// Flush submits must be the next of them, page for page, with the
// request's sector, count and charge list. After every op the deep
// Audit must pass and no Flush may have stopped short.
type flushRig struct {
	t     testing.TB
	eng   *sim.Engine
	mm    *mem.Manager
	fs    *FileSystem
	disks []*disk.Disk
	files []*File
	users []core.SPUID
	rng   *sim.RNG
	anon  []*anonPage // anonymous pages the rig holds to squeeze the cache

	faults bool // whether transfers may fail (and retry)
	want   [][]*CachePage

	// Coverage: what the checked Flushes and the ops reached.
	flushes, clusters, pages int
	held                     int // dirty in-flight pages found queued, summed over Flushes
	multiCharge              int // clusters charged to more than one SPU
	sameName                 int // Flushes that wrote both files named "data"
	redirtied                int // writes to a page while its flush was in flight
	dirtyEvicted             int // dirty cache pages reclaimed through WritebackEvicted
	settled                  bool
}

// anonPage is an anonymous page the rig holds or waits for; reclaim
// may take it.
type anonPage struct {
	p    *mem.Page
	gone bool
}

func (a *anonPage) PageEvicted(*mem.Page) { a.p, a.gone = nil, true }

// newFlushRig builds the machine flags selects: 2 or 3 user SPUs, 48 to
// 160 frames, a dirty high-water mark of 4, 24 or a quarter of memory,
// a flush cluster of 16 or 4 pages, and whether transfers may fail. The
// files sit on two disks, contiguous and scattered, and two of them,
// one per disk, are both named "data".
func newFlushRig(t testing.TB, flags uint8, seed uint64) *flushRig {
	f := int(flags)
	eng := sim.NewEngine()
	spus := core.NewManager()
	r := &flushRig{t: t, eng: eng, rng: sim.NewRNG(seed), faults: (f/48)%2 == 1}
	for i := 0; i < 2+f%2; i++ {
		r.users = append(r.users, spus.NewSPU(fmt.Sprintf("u%d", i), 1, core.ShareIdle).ID())
	}
	r.mm = mem.NewManager(eng, spus, 48+16*((f/2)%8), 0)
	r.mm.DivideAmongSPUs()
	r.fs = New(eng, r.mm, SemRW)
	r.fs.DirtyHighWater = [...]int{4, 24, r.fs.DirtyHighWater}[(f/16)%3]
	if (f/96)%2 == 1 {
		r.fs.FlushClusterPages = 4
	}
	r.fs.flushProbe = r.probe
	r.mm.SetPageout(func(p *mem.Page, done func(ok bool)) {
		if r.fs.WritebackEvicted(p, func() { done(true) }) {
			r.dirtyEvicted++
		} else {
			done(true)
		}
	})
	for i := 0; i < 2; i++ {
		d := disk.New(eng, disk.HP97560(), disk.NewPIso(0), 0)
		r.disks = append(r.disks, d)
		al := NewAllocator(d, r.rng.Fork())
		r.files = append(r.files,
			al.NewFile("data", 24*mem.PageSize, Contiguous, 0),
			al.NewFile(fmt.Sprintf("src%d", i), 20*mem.PageSize, Scattered, 1+int64(i)))
		if i == 0 {
			r.files = append(r.files, al.NewFile("log", 40*mem.PageSize, Contiguous, 0))
		}
	}
	return r
}

// probe checks each Flush against the reference (see flushRig).
func (r *flushRig) probe(cluster []*CachePage, req *disk.Request) {
	if cluster == nil {
		if len(r.want) > 0 {
			r.t.Fatalf("a Flush left %d reference clusters unwritten, first %s", len(r.want), describe(r.want[0]))
		}
		r.want = refFlushClusters(r.fs)
		r.flushes++
		for _, cp := range r.fs.flushQ {
			if cp.dirty && cp.io {
				r.held++
			}
		}
		var data []*File
		for _, c := range r.want {
			if f := c[0].file; f.Name == "data" && !slices.Contains(data, f) {
				data = append(data, f)
			}
		}
		if len(data) == 2 {
			r.sameName++
		}
		return
	}
	if len(r.want) == 0 {
		r.t.Fatalf("Flush wrote %s, which the reference does not", describe(cluster))
	}
	want := r.want[0]
	r.want = r.want[1:]
	if !slices.Equal(cluster, want) {
		r.t.Fatalf("Flush wrote %s, reference %s", describe(cluster), describe(want))
	}
	wantCharges := refCharges(want)
	if req.Kind != disk.Write || req.SPU != core.SharedID || req.Sector != want[0].Sector() ||
		req.Count != len(want)*mem.SectorsPerPage || !slices.Equal(req.Charges, wantCharges) {
		r.t.Fatalf("request for %s is %v %v sector %d count %d charges %v; reference sector %d count %d charges %v",
			describe(cluster), req.Kind, req.SPU, req.Sector, req.Count, req.Charges,
			want[0].Sector(), len(want)*mem.SectorsPerPage, wantCharges)
	}
	r.clusters++
	r.pages += len(cluster)
	if len(wantCharges) > 1 {
		r.multiCharge++
	}
}

// describe names a cluster's pages as name#id:idx.
func describe(cluster []*CachePage) string {
	s := "["
	for i, cp := range cluster {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s#%d:%d", cp.file.Name, cp.file.id, cp.idx)
	}
	return s + "]"
}

func (r *flushRig) user(a byte) core.SPUID { return r.users[int(a)%len(r.users)] }

// span picks a byte range of file f: a start page, 1 to 8 pages long,
// sometimes starting or ending mid-page.
func (r *flushRig) span(f *File) (off, n int64) {
	off = r.rng.Int63n(f.NumPages()) * mem.PageSize
	n = (1 + r.rng.Int63n(8)) * mem.PageSize
	if r.rng.Intn(4) == 0 {
		off += r.rng.Int63n(mem.PageSize)
		n -= r.rng.Int63n(mem.PageSize)
	}
	return off, n
}

// step applies one op (kind b, argument a), then checks the file system.
func (r *flushRig) step(b, a byte) {
	fs := r.fs
	f := r.files[int(a)%len(r.files)]
	switch b % 13 {
	case 0, 1, 2: // delayed write; past the high-water mark it flushes
		off, n := r.span(f)
		fs.Write(r.user(a/5), f, off, n, func() {})
	case 3, 4: // read, with read-ahead on sequential access
		off, n := r.span(f)
		fs.Read(r.user(a/5), f, off, n, func() {})
	case 5:
		fs.Flush()
	case 6:
		fs.FlushTick()
	case 7: // a write while a read of the same pages is in flight
		off, n := r.span(f)
		fs.Read(r.user(a/5), f, off, n, func() {})
		fs.Write(r.user(a/7), f, off, n, func() {})
	case 8: // a write to pages while their own flush is in flight
		fs.Flush()
		off, n := r.span(f)
		for idx := off / mem.PageSize; idx <= (off+n-1)/mem.PageSize && idx < f.NumPages(); idx++ {
			if cp := fs.cache[cacheKey{f, idx}]; cp != nil && cp.io && cp.dirty && !cp.queued {
				r.redirtied++
			}
		}
		fs.Write(r.user(a/5), f, off, n, func() {})
	case 9: // memory pressure: anonymous pages push cache pages out
		for i := 0; i < 1+int(a%8); i++ {
			ap := &anonPage{}
			r.mm.Request(r.user(a/8), mem.Anon, ap, func(p *mem.Page) { ap.p = p })
			r.anon = append(r.anon, ap)
		}
	case 10: // pressure eases
		for i := 0; i < 1+int(a%8) && len(r.anon) > 0; i++ {
			r.releaseAnon(int(a) % len(r.anon))
		}
	case 11: // time passes: reads land, flushes and write-backs finish;
		// the memory policy tick runs the pager, as the kernel's does
		r.eng.RunUntil(r.eng.Now() + sim.Time(1+int(a%16))*sim.Millisecond)
		r.mm.PolicyTick()
	case 12: // a disk starts or stops failing transfers, which retry
		if r.faults {
			d := r.disks[int(a)%len(r.disks)]
			if a&0x80 == 0 {
				d.SetFault(0.3, r.rng.Fork())
			} else {
				d.SetFault(0, nil)
			}
		}
	}
	r.check()
}

// releaseAnon gives back the i-th anonymous page, or forgets it if
// reclaim took it; a page still waiting for a frame is kept.
func (r *flushRig) releaseAnon(i int) {
	ap := r.anon[i]
	if ap.p != nil {
		r.mm.Release(ap.p)
	} else if !ap.gone {
		return
	}
	r.anon = slices.Delete(r.anon, i, i+1)
}

// check runs the deep audit and requires the last Flush to have written
// every cluster the reference expected.
func (r *flushRig) check() {
	if len(r.want) > 0 {
		r.t.Fatalf("a Flush left %d reference clusters unwritten, first %s", len(r.want), describe(r.want[0]))
	}
	if err := r.fs.Audit(); err != nil {
		r.t.Fatal(err)
	}
}

// run replays ops as (kind, argument) pairs, then heals the disks,
// gives back the anonymous pages, flushes and drains. When no frame
// request is left waiting, no page may stay dirty. (One can be: shared
// pages are reclaimed only when no frame is free, so a user SPU whose
// entitlement they squeezed to a page or two can stall holding a
// partly allocated read cluster.)
func (r *flushRig) run(ops []byte) {
	for i := 0; i+1 < len(ops); i += 2 {
		r.step(ops[i], ops[i+1])
	}
	for _, d := range r.disks {
		d.SetFault(0, nil)
	}
	for i := len(r.anon) - 1; i >= 0; i-- {
		r.releaseAnon(i)
	}
	r.eng.Run()
	r.mm.PolicyTick()
	r.eng.Run()
	r.fs.Flush()
	r.eng.Run()
	r.check()
	if r.mm.Waiters() == 0 {
		r.settled = true
		if n := r.fs.DirtyPages(); n != 0 {
			r.t.Fatalf("%d pages still dirty after the final flush", n)
		}
	}
}

// TestFlushMatchesReference replays random op sequences over every rig
// shape and requires every Flush to write exactly the reference scan's
// clusters and requests.
func TestFlushMatchesReference(t *testing.T) {
	gen := sim.NewRNG(42)
	var flushes, clusters, pages, held, multi, same, redirtied, evicted, retries, settled int
	for script := 0; script < 192; script++ {
		flags := uint8(script)
		ops := make([]byte, 600)
		for i := range ops {
			ops[i] = byte(gen.Uint64())
		}
		r := newFlushRig(t, flags, gen.Uint64())
		r.run(ops)
		flushes += r.flushes
		clusters += r.clusters
		pages += r.pages
		held += r.held
		multi += r.multiCharge
		same += r.sameName
		redirtied += r.redirtied
		evicted += r.dirtyEvicted
		retries += int(r.fs.Stat.Retries)
		if r.settled {
			settled++
		}
	}
	t.Logf("%d flushes, %d clusters, %d pages, %d held, %d multi-SPU charges, %d same-name flushes, %d re-dirtied in flight, %d dirty evictions, %d retries, %d settled",
		flushes, clusters, pages, held, multi, same, redirtied, evicted, retries, settled)
	// The scripts must reach what they are meant to cover.
	if clusters < 6000 || held < 1000 || multi < 300 || same < 70 || redirtied < 4000 || evicted < 1500 || retries < 140 || settled < 40 {
		t.Fatalf("weak coverage: %d clusters, %d held, %d multi-SPU charges, %d same-name flushes, %d re-dirtied in flight, %d dirty evictions, %d retries, %d settled",
			clusters, held, multi, same, redirtied, evicted, retries, settled)
	}
}

// FuzzFlush is the same differential check on fuzzed rigs and op
// sequences.
func FuzzFlush(f *testing.F) {
	burst := []byte{0, 0, 0, 1, 3, 2, 7, 0, 8, 1, 5, 0, 9, 3, 11, 2, 12, 1, 0, 2, 6, 0, 9, 7, 11, 9, 10, 2, 1, 3, 8, 2, 11, 5}
	f.Add(uint8(0), uint64(1), burst)   // 2 users, 48 frames, high water 4
	f.Add(uint8(51), uint64(2), burst)  // 3 users, 64 frames, high water 4, failing disks
	f.Add(uint8(142), uint64(3), burst) // 2 users, 160 frames, quarter high water, 4-page clusters
	f.Add(uint8(165), uint64(4), burst) // 3 users, 80 frames, high water 24, failing disks, 4-page clusters
	f.Fuzz(func(t *testing.T, flags uint8, seed uint64, ops []byte) {
		if len(ops) > 2*1000 {
			ops = ops[:2*1000]
		}
		newFlushRig(t, flags, seed).run(ops)
	})
}
