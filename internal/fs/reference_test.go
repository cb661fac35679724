package fs

import (
	"perfiso/internal/core"
	"perfiso/internal/disk"
	"perfiso/internal/mem"
)

// This file keeps the whole-cache scan the flush queue replaced, as the
// reference the differential tests (TestFlushMatchesReference,
// FuzzFlush) check Flush against. refFlushClusters is the original
// collection and clustering code with one change: files of the same
// name are ordered by file id, where the original left them in map
// iteration order. refCharges is the original per-cluster charge
// list.

// refFlushClusters returns the clusters the scan-based Flush would
// write, in submission order: every dirty, idle, resident, unpinned
// page, grouped by file, files by (name, id), pages by index.
func refFlushClusters(fs *FileSystem) [][]*CachePage {
	byFile := make(map[*File][]*CachePage)
	var files []*File
	for _, cp := range fs.cache {
		if cp.dirty && !cp.io && cp.page != nil && !cp.page.Pinned() {
			if len(byFile[cp.file]) == 0 {
				files = append(files, cp.file)
			}
			byFile[cp.file] = append(byFile[cp.file], cp)
		}
	}
	before := func(a, b *File) bool {
		return a.Name < b.Name || a.Name == b.Name && a.id < b.id
	}
	for i := 1; i < len(files); i++ {
		for j := i; j > 0 && before(files[j], files[j-1]); j-- {
			files[j-1], files[j] = files[j], files[j-1]
		}
	}
	var out [][]*CachePage
	for _, f := range files {
		cps := byFile[f]
		for i := 1; i < len(cps); i++ {
			for j := i; j > 0 && cps[j-1].idx > cps[j].idx; j-- {
				cps[j-1], cps[j] = cps[j], cps[j-1]
			}
		}
		i := 0
		for i < len(cps) {
			cluster := []*CachePage{cps[i]}
			for int64(len(cluster)) < fs.FlushClusterPages && i+len(cluster) < len(cps) {
				prev, next := cluster[len(cluster)-1], cps[i+len(cluster)]
				if next.idx != prev.idx+1 || !f.contiguousWith(prev.idx) {
					break
				}
				cluster = append(cluster, next)
			}
			i += len(cluster)
			out = append(out, cluster)
		}
	}
	return out
}

// refCharges is the charge list the scan-based flushCluster attached to
// a cluster's request: sectors per dirtier, sorted by SPU.
func refCharges(cluster []*CachePage) []disk.Charge {
	charges := make(map[core.SPUID]int)
	for _, cp := range cluster {
		charges[cp.dirtier] += mem.SectorsPerPage
	}
	var chargeList []disk.Charge
	for spu, sectors := range charges {
		chargeList = append(chargeList, disk.Charge{SPU: spu, Sectors: sectors})
	}
	for i := 1; i < len(chargeList); i++ {
		for j := i; j > 0 && chargeList[j-1].SPU > chargeList[j].SPU; j-- {
			chargeList[j-1], chargeList[j] = chargeList[j], chargeList[j-1]
		}
	}
	return chargeList
}
