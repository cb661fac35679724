package fs

import (
	"testing"

	"perfiso/internal/mem"
)

// BenchmarkWarmRead measures the cache-hit read path.
func BenchmarkWarmRead(b *testing.B) {
	r := newRig(4096)
	f := r.al.NewFile("f", 256*1024, Contiguous, 0)
	r.fs.Read(spuA, f, 0, 256*1024, func() {})
	r.eng.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.fs.Read(spuA, f, 0, 64*1024, func() {})
	}
}

// BenchmarkColdReadCycle measures the full miss path: read, evict,
// re-read, including disk events.
func BenchmarkColdReadCycle(b *testing.B) {
	r := newRig(4096)
	f := r.al.NewFile("f", 64*1024, Contiguous, 0)
	r.fs.ReadAheadPages = 0
	for i := 0; i < b.N; i++ {
		r.fs.Read(spuA, f, 0, 64*1024, func() {})
		r.eng.Run()
		for _, cp := range r.fs.cacheSnapshot() {
			p := cp.page
			cp.PageEvicted(p)
			r.mm.Free(p)
		}
	}
}

// BenchmarkFlush measures batching and submitting delayed writes.
func BenchmarkFlush(b *testing.B) {
	r := newRig(1 << 15)
	f := r.al.NewFile("f", 1<<20, Contiguous, 0)
	for i := 0; i < b.N; i++ {
		r.fs.Write(spuA, f, 0, 1<<20, func() {})
		r.fs.FlushTick()
		r.eng.Run()
	}
	_ = mem.PageSize
}

// BenchmarkFlushDeep measures Flush beside a large clean cache: 16k
// resident clean pages and four freshly dirtied pages per flush, so the
// cost of finding the dirty pages dominates.
func BenchmarkFlushDeep(b *testing.B) {
	r := newRig(1 << 15)
	r.fs.ReadAheadPages = 0
	big := r.al.NewFile("big", 1<<14*mem.PageSize, Contiguous, 0)
	r.fs.Read(spuA, big, 0, big.Size, func() {})
	r.eng.Run()
	f := r.al.NewFile("f", 1<<20, Contiguous, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%64) * 4 * mem.PageSize
		r.fs.Write(spuA, f, off, 4*mem.PageSize, func() {})
		r.fs.Flush()
		r.eng.Run()
	}
}

// TestFlushEmptyQueueZeroAlloc guards the idle path: a Flush with
// nothing queued, over a cache of clean pages, allocates nothing.
func TestFlushEmptyQueueZeroAlloc(t *testing.T) {
	r := newRig(4096)
	r.fs.ReadAheadPages = 0
	f := r.al.NewFile("f", 1024*mem.PageSize, Contiguous, 0)
	r.fs.Read(spuA, f, 0, f.Size, func() {})
	r.eng.Run()
	r.fs.Write(spuA, f, 0, 64*mem.PageSize, func() {})
	r.fs.Flush()
	r.eng.Run()
	if r.fs.CachedPages() != 1024 || r.fs.DirtyPages() != 0 {
		t.Fatalf("rig: %d cached, %d dirty; want 1024 clean", r.fs.CachedPages(), r.fs.DirtyPages())
	}
	if avg := testing.AllocsPerRun(100, r.fs.Flush); avg != 0 {
		t.Fatalf("empty-queue Flush allocates %v times, want 0", avg)
	}
}
