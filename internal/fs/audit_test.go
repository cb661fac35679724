package fs

import (
	"strings"
	"testing"
)

// TestAuditCatchesCorruptFlushQueue is the negative control for Audit:
// each planted corruption of the flush queue or the dirty count must be
// reported.
func TestAuditCatchesCorruptFlushQueue(t *testing.T) {
	cases := []struct {
		name  string
		plant func(fs *FileSystem, queued, clean *CachePage)
		want  string
	}{
		{"dirty count off", func(fs *FileSystem, _, _ *CachePage) { fs.dirtyCount++ }, "dirtyCount"},
		{"dirty page not queued", func(fs *FileSystem, q, _ *CachePage) {
			fs.flushQ = fs.flushQ[:0]
			q.queued = false
		}, "not queued"},
		{"page queued twice", func(fs *FileSystem, q, _ *CachePage) { fs.flushQ = append(fs.flushQ, q) }, "twice"},
		{"queued without the flag", func(fs *FileSystem, _, c *CachePage) { fs.flushQ = append(fs.flushQ, c) }, "not flagged"},
		{"flag without the queue", func(_ *FileSystem, _, c *CachePage) { c.queued = true }, "not in the flush queue"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(1000)
			f := r.al.NewFile("f", 64*1024, Contiguous, 0)
			r.fs.ReadAheadPages = 0
			r.fs.Read(spuA, f, 0, 8*1024, func() {})
			r.eng.Run()
			r.fs.Write(spuA, f, 32*1024, 4*1024, func() {})
			if err := r.fs.Audit(); err != nil {
				t.Fatalf("healthy cache fails the audit: %v", err)
			}
			queued := r.fs.cache[cacheKey{f, 8}]
			clean := r.fs.cache[cacheKey{f, 0}]
			if queued == nil || !queued.queued || clean == nil || clean.dirty {
				t.Fatal("rig did not set up one queued dirty page and one clean page")
			}
			tc.plant(r.fs, queued, clean)
			err := r.fs.Audit()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}
