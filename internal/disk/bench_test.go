package disk

import (
	"testing"

	"perfiso/internal/core"
	"perfiso/internal/sim"
)

// benchDrain submits nReq requests and drains the disk, measuring
// whole-request pipeline cost including the scheduler's pick. Shallow
// drains alternate two SPUs; deep ones rotate three user SPUs and the
// shared SPU.
func benchDrain(b *testing.B, sched Scheduler, scattered bool, nReq int) {
	b.Helper()
	b.ReportAllocs()
	deep := nReq > 256
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewEngine()
		d := New(eng, HP97560(), sched, 0)
		spc := d.Params().SectorsPerCylinder()
		b.StartTimer()
		for j := 0; j < nReq; j++ {
			sector := int64(j) * 64
			if scattered {
				sector = (int64(j*37) % 1900) * spc
			}
			spu := spuA
			switch {
			case deep && j%4 == 3:
				spu = core.SharedID
			case deep:
				spu = core.FirstUserID + core.SPUID(j%4)
			case j%2 == 1:
				spu = spuB
			}
			d.Submit(&Request{Kind: Read, Sector: sector, Count: 16, SPU: spu})
		}
		eng.Run()
	}
}

const deepDrain = 2048

func BenchmarkPosSequential(b *testing.B)  { benchDrain(b, NewPos(), false, 256) }
func BenchmarkPosScattered(b *testing.B)   { benchDrain(b, NewPos(), true, 256) }
func BenchmarkIsoScattered(b *testing.B)   { benchDrain(b, NewIso(), true, 256) }
func BenchmarkPIsoScattered(b *testing.B)  { benchDrain(b, NewPIso(0), true, 256) }
func BenchmarkPIsoSequential(b *testing.B) { benchDrain(b, NewPIso(0), false, 256) }

func BenchmarkDeepPosScattered(b *testing.B)   { benchDrain(b, NewPos(), true, deepDrain) }
func BenchmarkDeepIsoScattered(b *testing.B)   { benchDrain(b, NewIso(), true, deepDrain) }
func BenchmarkDeepPIsoScattered(b *testing.B)  { benchDrain(b, NewPIso(0), true, deepDrain) }
func BenchmarkDeepPIsoSequential(b *testing.B) { benchDrain(b, NewPIso(0), false, deepDrain) }

// BenchmarkSeekModel measures the pure mechanical model.
func BenchmarkSeekModel(b *testing.B) {
	p := HP97560()
	for i := 0; i < b.N; i++ {
		_ = p.SeekTime(0, i%p.Cylinders)
	}
}

// BenchmarkDeepAudit measures one Audit of a disk with deepDrain
// requests queued over three user SPUs and the shared SPU; the
// invariant auditor runs it on every disk at every tick.
func BenchmarkDeepAudit(b *testing.B) {
	d, _ := steadyDisk(NewPIso(0), deepDrain, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Audit(); err != nil {
			b.Fatal(err)
		}
	}
}
