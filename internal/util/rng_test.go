package util

import (
	"context"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(12345)
	b := NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) returned %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewRNG(1).Uint64n(0)
}

func TestRNGBoolEdges(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestRNGBoolRate(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.1) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.1) > 0.01 {
		t.Fatalf("Bool(0.1) rate %v", rate)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(42)
	child := parent.Fork()
	// The child must not replay the parent's stream.
	a, b := parent.Uint64(), child.Uint64()
	if a == b {
		t.Fatal("fork replayed parent stream")
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(20)
	if len(p) != 20 {
		t.Fatalf("Perm length %d", len(p))
	}
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGPermPropertyBased(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		sum := 0
		for _, v := range p {
			sum += v
		}
		return sum == n*(n-1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGUint64nDistribution(t *testing.T) {
	r := NewRNG(17)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Uint64n(10)]++
	}
	for i, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("bucket %d count %d far from uniform", i, c)
		}
	}
}

// TestRollKeyPinned pins RollKey's draws for keys shaped like its
// callers' (netfault call, retry attempt, proxy connection), so a
// change to the hashing shows up as a changed decision here rather than
// as different faults in the chaos suites.
func TestRollKeyPinned(t *testing.T) {
	for _, c := range []struct {
		got, want float64
	}{
		{RollKey("%d|%s|%s|%d", 7, "POST", "/v1/sweeps", 3), 0.9750677837854858},
		{RollKey("%s|%d", "job-a", 1), 0.10551561725139336},
		{RollKey("%s|%d", "job-a", 2), 0.4070786017599952},
		{RollKey("proxy|%d|%d", 42, 0), 0.5721862112386206},
	} {
		if c.got != c.want {
			t.Errorf("RollKey = %v, want %v", c.got, c.want)
		}
	}
}

func TestSleepCtx(t *testing.T) {
	if !SleepCtx(context.Background(), time.Millisecond) {
		t.Fatal("uncancelled sleep reported early return")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if SleepCtx(ctx, time.Minute) {
		t.Fatal("cancelled sleep reported completion")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancelled sleep did not return promptly")
	}
	if SleepCtx(ctx, 0) || !SleepCtx(context.Background(), 0) {
		t.Fatal("zero sleep must report whether ctx is live")
	}
}
