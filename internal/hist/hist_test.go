package hist

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestObserveBucketing(t *testing.T) {
	h := New([]float64{0.001, 0.01, 0.1})
	for _, d := range []time.Duration{
		500 * time.Microsecond, // <= 0.001
		time.Millisecond,       // == 0.001 (le is inclusive)
		5 * time.Millisecond,   // <= 0.01
		50 * time.Millisecond,  // <= 0.1
		time.Second,            // +Inf
		-time.Second,           // clamps to 0, lands in the first bucket
	} {
		h.Observe(d)
	}
	s := h.Snapshot()
	want := []uint64{3, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Errorf("Count = %d, want 6", s.Count)
	}
	// The clamped negative contributes 0 ns; everything else sums exactly.
	wantNs := (500*time.Microsecond + time.Millisecond + 5*time.Millisecond +
		50*time.Millisecond + time.Second).Nanoseconds()
	if s.SumNs != wantNs {
		t.Errorf("SumNs = %d, want %d", s.SumNs, wantNs)
	}
	cum := s.Cumulative()
	if got := cum[len(cum)-1]; got != s.Count {
		t.Errorf("top cumulative bucket = %d, want Count %d", got, s.Count)
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Errorf("cumulative counts must be monotone: %v", cum)
		}
	}
}

func TestQuantile(t *testing.T) {
	h := New([]float64{0.001, 0.01, 0.1, 1})
	// 90 observations in (0.001, 0.01], 10 in (0.1, 1].
	for i := 0; i < 90; i++ {
		h.Observe(5 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(500 * time.Millisecond)
	}
	s := h.Snapshot()
	// p50 rank 50 falls in the 90-strong bucket: 0.001 + 0.009*50/90.
	if got, want := s.Quantile(0.5), 0.001+0.009*50/90; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	// p99 rank 99 falls in the top occupied bucket (0.1, 1].
	if got, want := s.Quantile(0.99), 0.1+0.9*9/10; math.Abs(got-want) > 1e-12 {
		t.Errorf("p99 = %v, want %v", got, want)
	}
	// Quantiles are monotone in q.
	prev := -1.0
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		v := s.Quantile(q)
		if v < prev {
			t.Errorf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	h := NewDefault()
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// Everything in the +Inf bucket: the estimate caps at the top bound.
	h.Observe(10 * time.Minute)
	top := DefaultBounds[len(DefaultBounds)-1]
	if got := h.Snapshot().Quantile(0.5); got != top {
		t.Errorf("+Inf-only quantile = %v, want top bound %v", got, top)
	}
	// Out-of-range q clamps instead of panicking.
	s := h.Snapshot()
	if s.Quantile(-1) != s.Quantile(0) || s.Quantile(2) != s.Quantile(1) {
		t.Error("out-of-range q must clamp to [0,1]")
	}
}

// TestDefaultBoundsResolveMicroseconds pins quantile accuracy over the
// whole DefaultBounds range: for a constant latency anywhere from the 1µs
// floor to the 60s top, p50 and p99 stay inside the bucket holding it, so
// the estimate is off by at most one bucket step (x2.5; x3 for 10s→30s) —
// a 5µs cache hit reads as microseconds, not as the 50/99µs a 100µs floor
// produced.
func TestDefaultBoundsResolveMicroseconds(t *testing.T) {
	if DefaultBounds[0] != 1e-6 {
		t.Fatalf("DefaultBounds floor = %v, want 1µs", DefaultBounds[0])
	}
	for i := 1; i < len(DefaultBounds); i++ {
		if r := DefaultBounds[i] / DefaultBounds[i-1]; r > 3+1e-9 {
			t.Errorf("step %v -> %v is x%.2f, wider than x3", DefaultBounds[i-1], DefaultBounds[i], r)
		}
	}
	for _, d := range []time.Duration{
		time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond, 7 * time.Microsecond,
		20 * time.Microsecond, 40 * time.Microsecond, 80 * time.Microsecond,
		300 * time.Microsecond, 4 * time.Millisecond, 60 * time.Millisecond,
		700 * time.Millisecond, 3 * time.Second, 45 * time.Second,
	} {
		h := NewDefault()
		for i := 0; i < 1000; i++ {
			h.Observe(d)
		}
		s := h.Snapshot()
		// The bucket holding d is (lo, hi]: one step either side of d.
		v := d.Seconds()
		i := 0
		for DefaultBounds[i] < v {
			i++
		}
		lo, hi := 0.0, DefaultBounds[i]
		if i > 0 {
			lo = DefaultBounds[i-1]
		}
		for _, q := range []float64{0.5, 0.99} {
			if got := s.Quantile(q); got < lo || got > hi {
				t.Errorf("%v: p%v = %v outside its bucket (%v, %v]", d, q*100, got, lo, hi)
			}
		}
	}
	// The case the floor was extended for, in plain numbers.
	h := NewDefault()
	for i := 0; i < 1000; i++ {
		h.Observe(5 * time.Microsecond)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.99} {
		if got := s.Quantile(q); got < 2.5e-6 || got > 1e-5 {
			t.Errorf("5µs observations: p%v = %vµs, want within one step of 5µs", q*100, got*1e6)
		}
	}
}

func TestMeanExact(t *testing.T) {
	h := NewDefault()
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	s := h.Snapshot()
	if s.SumNs != 4e6 {
		t.Fatalf("SumNs = %d, want 4000000", s.SumNs)
	}
	if got := s.Mean(); got != 0.002 {
		t.Errorf("Mean = %v, want 0.002", got)
	}
}

func TestNewValidation(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"descending": {2, 1},
		"duplicate":  {1, 1},
		"nan":        {math.NaN()},
		"inf":        {1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%s) must panic", name)
				}
			}()
			New(bounds)
		}()
	}
}

// TestConcurrentSnapshotInvariants hammers Observe from many goroutines
// while snapshotting: every snapshot must be internally consistent (Count
// equals the bucket sum — the "+Inf bucket == _count" exposition
// invariant) and its mean must never under-report. All observations are
// exactly 1ms, so any subset's true mean is 1ms; the write order (sum
// before count) guarantees SumNs covers every counted observation, i.e.
// mean >= 1ms within float error.
func TestConcurrentSnapshotInvariants(t *testing.T) {
	h := NewDefault()
	const workers, perWorker = 8, 2000
	var observers, snapshotter sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	snapshotter.Add(1)
	go func() {
		defer snapshotter.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var sum uint64
			for _, c := range s.Counts {
				sum += c
			}
			if sum != s.Count {
				t.Errorf("snapshot Count %d != bucket sum %d", s.Count, sum)
				return
			}
			if s.Count > 0 && s.SumNs < int64(s.Count)*int64(time.Millisecond) {
				t.Errorf("mean under-reports: SumNs %d for %d 1ms observations", s.SumNs, s.Count)
				return
			}
		}
	}()
	observers.Wait()
	close(stop)
	snapshotter.Wait()

	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("final Count = %d, want %d", s.Count, workers*perWorker)
	}
	if s.SumNs != int64(workers*perWorker)*int64(time.Millisecond) {
		t.Fatalf("final SumNs = %d, want %d", s.SumNs, int64(workers*perWorker)*int64(time.Millisecond))
	}
}
