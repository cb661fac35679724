package stats

import (
	"math"
	"testing"
	"testing/quick"

	"perfiso/internal/sim"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 6} {
		s.Add(v)
	}
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 4 {
		t.Fatalf("Mean = %g", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 6 {
		t.Fatalf("Min/Max = %g/%g", s.Min(), s.Max())
	}
	if s.Sum() != 12 {
		t.Fatalf("Sum = %g", s.Sum())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestSampleStdDev(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.StdDev(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("StdDev = %g, want 2", got)
	}
}

// Regression: StdDev was computed as sumSq/n - mean², which cancels
// catastrophically when the spread is small relative to the magnitude —
// exactly the shape of response times held in nanoseconds. Two
// observations one apart at 1e9 have a true population standard
// deviation of 0.5; the sum-of-squares form lost every significant bit
// (the clamped result was 0 or pure rounding noise). Welford's update
// keeps full precision.
func TestSampleStdDevLargeOffset(t *testing.T) {
	var s Sample
	s.Add(1e9)
	s.Add(1e9 + 1)
	if got := s.StdDev(); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("StdDev = %g, want 0.5 (catastrophic cancellation)", got)
	}
	// Same shape, bigger sample: 1000 observations alternating ±1 around
	// 4.2e9 (a ~4.2 s response time in ns). True stddev is 1.
	var big Sample
	for i := 0; i < 1000; i++ {
		big.Add(4.2e9 + float64(i%2*2-1))
	}
	if got := big.StdDev(); math.Abs(got-1) > 1e-6 {
		t.Fatalf("StdDev = %g, want 1", got)
	}
}

// Merge must combine second moments exactly (Chan et al.), including
// from an empty receiver and at large magnitudes.
func TestSampleMergeStdDev(t *testing.T) {
	var a, b, combined Sample
	for i := 0; i < 500; i++ {
		v := 1e9 + float64(i)
		a.Add(v)
		combined.Add(v)
	}
	for i := 500; i < 1000; i++ {
		v := 1e9 + float64(i)
		b.Add(v)
		combined.Add(v)
	}
	a.Merge(&b)
	if got, want := a.StdDev(), combined.StdDev(); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("merged StdDev = %g, combined = %g", got, want)
	}
	var empty Sample
	empty.Merge(&b)
	var bAlone Sample
	for i := 500; i < 1000; i++ {
		bAlone.Add(1e9 + float64(i))
	}
	if got, want := empty.StdDev(), bAlone.StdDev(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("merge into empty: StdDev = %g, want %g", got, want)
	}
}

func TestSampleAddTime(t *testing.T) {
	var s Sample
	s.AddTime(500 * sim.Millisecond)
	if s.Mean() != 0.5 {
		t.Fatalf("AddTime mean = %g", s.Mean())
	}
}

func TestSampleMerge(t *testing.T) {
	var a, b Sample
	a.Add(1)
	a.Add(3)
	b.Add(5)
	b.Add(7)
	a.Merge(&b)
	if a.N() != 4 || a.Mean() != 4 || a.Min() != 1 || a.Max() != 7 {
		t.Fatalf("merged: n=%d mean=%g min=%g max=%g", a.N(), a.Mean(), a.Min(), a.Max())
	}
	var empty Sample
	a.Merge(&empty) // no-op
	if a.N() != 4 {
		t.Fatal("merging empty changed N")
	}
}

// Property: merging two samples gives the same mean as one combined sample.
func TestPropertyMergeEquivalence(t *testing.T) {
	// Map arbitrary bits into a bounded range so sums cannot overflow.
	bound := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1e6)
	}
	f := func(xs, ys []float64) bool {
		var combined, a, b Sample
		for _, x := range xs {
			x = bound(x)
			a.Add(x)
			combined.Add(x)
		}
		for _, y := range ys {
			y = bound(y)
			b.Add(y)
			combined.Add(y)
		}
		a.Merge(&b)
		if a.N() != combined.N() {
			return false
		}
		if a.N() == 0 {
			return true
		}
		return math.Abs(a.Mean()-combined.Mean()) < 1e-9*(1+math.Abs(combined.Mean()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 1)          // value 1 for 1s
	w.Set(sim.Second, 3) // value 3 for 1s
	got := w.Average(2 * sim.Second)
	if math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("Average = %g, want 2", got)
	}
	if w.Max() != 3 {
		t.Fatalf("Max = %g", w.Max())
	}
}

func TestTimeWeightedAdd(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 0)
	w.Add(sim.Second, 4) // value 4 from t=1s
	if w.Value() != 4 {
		t.Fatalf("Value = %g", w.Value())
	}
	got := w.Average(2 * sim.Second) // 0 for 1s, 4 for 1s
	if math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("Average = %g, want 2", got)
	}
}

func TestTimeWeightedNoElapsed(t *testing.T) {
	var w TimeWeighted
	w.Set(sim.Second, 5)
	if w.Average(sim.Second) != 0 {
		t.Fatal("zero-duration window should average 0")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(3, 30)
	s.Add(1, 10)
	s.Add(2, 20)
	sorted := s.Sorted()
	if sorted[0].X != 1 || sorted[2].X != 3 {
		t.Fatalf("Sorted = %v", sorted)
	}
	if y, ok := s.YAt(2); !ok || y != 20 {
		t.Fatalf("YAt(2) = %g,%v", y, ok)
	}
	if _, ok := s.YAt(99); ok {
		t.Fatal("YAt(99) should miss")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(150, 100) != 150 {
		t.Fatal("Ratio(150,100)")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio with zero base")
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		0.0005: "0.50ms",
		0.25:   "250.0ms",
		1.5:    "1.50s",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Errorf("FormatSeconds(%g) = %q, want %q", in, got, want)
		}
	}
}

// Regression: Average used to fold the open segment into the tracker
// as a side effect (it called Set), advancing w.last to the query
// time. Peeking at the average ahead of the sample stream then made
// the next legitimate Set panic with "time going backwards".
func TestTimeWeightedAverageIsSideEffectFree(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 1)
	// Peek at the running average at t=2s...
	if got := w.Average(2 * sim.Second); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Average(2s) = %g, want 1", got)
	}
	// ...then a real observation arrives at t=1s. The query must not
	// have moved the tracker's clock.
	w.Set(sim.Second, 3)
	first := w.Average(2 * sim.Second) // 1 for 1s, 3 for 1s
	second := w.Average(2 * sim.Second)
	if first != second {
		t.Fatalf("repeated Average diverged: %g then %g", first, second)
	}
	if math.Abs(first-2.0) > 1e-9 {
		t.Fatalf("Average(2s) = %g, want 2", first)
	}
	// A later query sees the open segment grow linearly.
	if got := w.Average(3 * sim.Second); math.Abs(got-7.0/3.0) > 1e-9 {
		t.Fatalf("Average(3s) = %g, want %g", got, 7.0/3.0)
	}
}

// Regression: Max seeded its running maximum with the zero value, so an
// all-negative tracker reported 0 — a value it never held.
func TestTimeWeightedMaxAllNegative(t *testing.T) {
	var w TimeWeighted
	w.Set(0, -5)
	w.Set(sim.Second, -2)
	w.Set(2*sim.Second, -9)
	if got := w.Max(); got != -2 {
		t.Fatalf("Max = %g, want -2 (zero was never observed)", got)
	}
}

// Regression: YAt used exact float64 equality, so x values that went
// through any arithmetic (load levels computed as float sums, sweep
// points built by repeated addition) missed their own entries.
func TestSeriesYAtEpsilon(t *testing.T) {
	var s Series
	x := 0.0
	for i := 0; i < 10; i++ {
		x += 0.1 // 0.1+0.1+... != 0.3 exactly in float64
		s.Add(x, float64(i))
	}
	if y, ok := s.YAt(0.3); !ok || y != 2 {
		t.Fatalf("YAt(0.3) = %g,%v; want 2,true (epsilon match)", y, ok)
	}
	if y, ok := s.YAt(1.0); !ok || y != 9 {
		t.Fatalf("YAt(1.0) = %g,%v; want 9,true", y, ok)
	}
	if _, ok := s.YAt(0.35); ok {
		t.Fatal("YAt(0.35) matched; epsilon too loose")
	}
}
