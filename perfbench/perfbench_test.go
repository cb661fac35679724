package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"perfiso/internal/sim"
	"perfiso/internal/workload"
)

// results memoizes one run of every case of a workload on a seed, so
// the tests that read the same cases pay for them once.
var results = map[string][]Result{}

func runAll(t *testing.T, workload string, seed uint64) []Result {
	t.Helper()
	key := fmt.Sprint(workload, "/", seed)
	if rs, ok := results[key]; ok {
		return rs
	}
	cases, err := Generate(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]Result, len(cases))
	for i, c := range cases {
		rs[i] = RunCase(c, nil, nil)
		if rs[i].Err != "" {
			t.Fatalf("%v: %s", c, rs[i].Err)
		}
	}
	results[key] = rs
	return rs
}

func TestGenerateIsSeeded(t *testing.T) {
	for _, wl := range workloads {
		w := wl.name
		a, err := Generate(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(w, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 generated different cases on two calls", w)
		}
		c, _ := Generate(w, 2)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same cases", w)
		}
	}
	if _, err := Generate("bogus", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSimDigestRepeats(t *testing.T) {
	for _, wl := range workloads {
		w := wl.name
		cases, _ := Generate(w, 1)
		cases = cases[:2] // the digest covers every case; two per workload keep the test short
		var digests [2]uint64
		for rep := range digests {
			b := &bench{cases: cases, first: make([]*Result, len(cases)), log: os.Stderr}
			b.runPass(nil, nil)
			if b.failed != 0 {
				t.Fatalf("%s: %d of %d cases failed", w, b.failed, b.attempted)
			}
			digests[rep] = b.simDigest()
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: sim_digest %x then %x for the same seed", w, digests[0], digests[1])
		}
	}
}

// TestWorkloadShapes guards the modelled load each workload was chosen
// for, on the default seed, so an edit to the generator cannot quietly
// remove the work a layer needs. It checks counts, never host time.
func TestWorkloadShapes(t *testing.T) {
	shape := func(w string) (queueMean, evictions, readReqs float64) {
		rs := runAll(t, w, 1)
		for _, r := range rs {
			queueMean += r.C.DiskQueueMean
			evictions += r.C.MemEvictions
			readReqs += r.C.FSReadReqs
		}
		return queueMean / float64(len(rs)), evictions, readReqs
	}
	if q, ev, _ := shape("tenants"); ev != 0 || q >= 1 {
		t.Errorf("tenants: %v evictions and disk.queue_mean %.2f; want 0 and < 1 (disk and memory idle)", ev, q)
	}
	if q, ev, _ := shape("mempressure"); q < 100 || ev == 0 {
		t.Errorf("mempressure: disk.queue_mean %.1f and %v evictions; want >= 100 and > 0", q, ev)
	}
	if q, _, rd := shape("diskstream"); q >= 200 || rd == 0 {
		t.Errorf("diskstream: disk.queue_mean %.1f and %v fs.read_reqs; want < 200 (shallow) and > 0", q, rd)
	}
}

// TestBrokenCasesFail is the negative control for failure accounting:
// a horizon too short for the jobs, and a replay whose digest differs
// from the first run, must each count as a failed case.
func TestBrokenCasesFail(t *testing.T) {
	cases, _ := Generate("tenants", 1)
	short := cases[0]
	short.Opts.Horizon = 100 * sim.Millisecond
	b := &bench{cases: []Case{short, cases[1]}, first: make([]*Result, 2), log: &bytes.Buffer{}}
	b.runPass(nil, nil)
	if b.failed != 1 || b.attempted != 2 {
		t.Fatalf("short horizon: %d of %d failed, want 1 of 2", b.failed, b.attempted)
	}
	if !strings.Contains(b.first[0].Err, "horizon") {
		t.Errorf("short horizon failed with %q", b.first[0].Err)
	}

	b.first[1].Digest ^= 1 // as if the first run had modelled something else
	b.runPass(nil, nil)
	if b.failed != 3 {
		t.Fatalf("after a replay pass %d failed, want 3 (both shorts and the digest mismatch)", b.failed)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"perfiso/internal/disk.(*Disk).startNext":                         "disk",
		"perfiso/internal/disk.(*PIso).pick.func1":                        "disk",
		"perfiso/internal/sim.(*Engine).Step":                             "sim",
		"perfiso/internal/sim.drain[go.shape.*perfiso/internal/mem.Page]": "sim",
		"perfiso/internal/stats.(*Sample).Add":                            "other",
		"runtime.mallocgc":                                                "goruntime",
		"runtime/internal/atomic.Load":                                    "goruntime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                    "goruntime",
		"main.RunCase": "other",
		"sort.Slice":   "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func (b *pb) uint(field int, v uint64) { b.varint(uint64(field) << 3); b.varint(v) }

func (b *pb) bytes(field int, p []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(p)))
	b.Write(p)
}

func (b *pb) packed(field int, vs ...uint64) {
	var inner pb
	for _, v := range vs {
		inner.varint(v)
	}
	b.bytes(field, inner.Bytes())
}

// syntheticProfile encodes a profile whose functions are the given
// names (ids 1..n, one location each with the same id, except location
// 100 which inlines functions 1 and 2) and whose samples are stacks of
// location ids, leaf first, each with its count.
func syntheticProfile(names []string, stacks [][]uint64, counts []uint64) []byte {
	var p pb
	p.bytes(profStrings, nil) // string 0 is always ""
	for i, n := range names {
		p.bytes(profStrings, []byte(n))
		var fn pb
		fn.uint(funcID, uint64(i+1))
		fn.uint(funcName, uint64(i+1))
		p.bytes(profFunction, fn.Bytes())
		var line pb
		line.uint(lineFunction, uint64(i+1))
		var loc pb
		loc.uint(locID, uint64(i+1))
		loc.bytes(locLine, line.Bytes())
		p.bytes(profLocation, loc.Bytes())
	}
	var inl pb
	inl.uint(locID, 100)
	for _, f := range []uint64{1, 2} {
		var line pb
		line.uint(lineFunction, f)
		inl.bytes(locLine, line.Bytes())
	}
	p.bytes(profLocation, inl.Bytes())
	for i, st := range stacks {
		var s pb
		s.packed(sampleLocation, st...)
		s.packed(sampleValue, counts[i], counts[i]*10_000_000)
		p.bytes(profSample, s.Bytes())
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.Bytes())
	zw.Close()
	return z.Bytes()
}

func TestFoldSyntheticProfile(t *testing.T) {
	names := []string{
		"perfiso/internal/disk.(*PIso).pick.func1", // 1
		"perfiso/internal/disk.(*Disk).startNext",  // 2
		"perfiso/internal/sim.(*Engine).Step",      // 3
		"runtime.mallocgc",                         // 4
		"perfiso/internal/mem.(*Manager).Allocate", // 5
		"main.main",    // 6
		"runtime.main", // 7
	}
	stacks := [][]uint64{
		{100, 3, 6, 7}, // pick inlined into startNext, under Step
		{4, 5, 3, 6, 7},
		{3, 6, 7},
		{4, 7},
	}
	counts := []uint64{5, 3, 2, 10}
	f, err := FoldProfile(syntheticProfile(names, stacks, counts))
	if err != nil {
		t.Fatal(err)
	}
	if f.Samples != 20 {
		t.Fatalf("Samples = %d, want 20", f.Samples)
	}
	var self int64
	for _, v := range f.Self {
		self += v
	}
	if self != f.Samples {
		t.Errorf("self counts sum to %d of %d samples", self, f.Samples)
	}
	wantSelf := map[string]int64{"disk": 5, "goruntime": 13, "sim": 2}
	if !reflect.DeepEqual(f.Self, wantSelf) {
		t.Errorf("Self = %v, want %v", f.Self, wantSelf)
	}
	wantIncl := map[string]int64{"disk": 5, "sim": 10, "mem": 3, "goruntime": 20, "other": 10}
	if !reflect.DeepEqual(f.Incl, wantIncl) {
		t.Errorf("Incl = %v, want %v", f.Incl, wantIncl)
	}
	if _, err := FoldProfile([]byte("not a profile")); err == nil {
		t.Error("garbage folded without error")
	}
}

// TestFoldRealProfile checks the decoder against what runtime/pprof
// actually writes.
func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	cases, _ := Generate("tenants", 1)
	deadline := time.Now().Add(300 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		RunCase(cases[i%len(cases)], nil, nil)
	}
	pprof.StopCPUProfile()
	f, err := FoldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.Samples == 0 {
		t.Skip("no CPU samples collected")
	}
	var self int64
	for _, v := range f.Self {
		self += v
	}
	if self != f.Samples || f.Incl["sim"] == 0 {
		t.Errorf("fold of a real profile: self %d of %d samples, sim incl %d", self, f.Samples, f.Incl["sim"])
	}
}

// TestOutputMatchesBenchmarkSpec runs the command briefly in both
// modes and checks that the last line carries exactly the metrics
// BENCHMARK.json lists, with their units.
func TestOutputMatchesBenchmarkSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	type metricSpec struct{ Name, Unit string }
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errs bytes.Buffer
		if code := run([]string{"--workload", "tenants", "--seed", "3", "--seconds", "0.01", "--trace", trace}, &out, &errs); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errs.String())
		}
		var lines []string
		sc := bufio.NewScanner(&out)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		var sum Summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatal(err)
		}
		if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
			t.Errorf("trace %s: correct=%v failed=%d attempted=%d", trace, sum.Correct, sum.Failed, sum.Attempted)
		}
		var got, exp []string
		for name, m := range sum.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range want {
			exp = append(exp, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("trace %s metrics:\n got %v\nwant %v", trace, got, exp)
		}
	}
}

// TestProbeAllocatesNothing guards the host probe: it runs inside
// timed passes, so an allocation in it would count in allocs_per_case
// and feed the garbage collector the cases run under.
func TestProbeAllocatesNothing(t *testing.T) {
	probe()
	if n := testing.AllocsPerRun(3, func() { probe() }); n != 0 {
		t.Errorf("probe allocates %v times per call", n)
	}
}

// TestStrataFillEverySubSlice checks the generator's stratification on
// diskstream's copy sizes: whatever the seed, each of the 48 equal
// sub-slices of the size range holds exactly one case.
func TestStrataFillEverySubSlice(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cases, err := Generate("diskstream", seed)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, len(cases))
		for _, c := range cases {
			mb := float64(c.Jobs[0].Params.(workload.CopyParams).Bytes) / (1 << 20)
			seen[int((mb-1)/23*float64(len(cases)))]++
		}
		for i, n := range seen {
			if n != 1 {
				t.Errorf("seed %d: sub-slice %d holds %d cases", seed, i, n)
			}
		}
	}
}
