// Package hist implements fixed-bucket latency histograms in the
// Prometheus style: a static set of ascending upper bounds (an implicit
// +Inf bucket on top), lock-free atomic observation counters, and an exact
// nanosecond sum next to them. One Histogram type serves both sides of a
// load test — flownetd's per-route serving telemetry (internal/server,
// exported at /stats and /metrics) and cmd/flowload's client-observed
// latencies — so server- and client-side tails are bucketed identically
// and directly comparable.
//
// Design constraints, in order:
//
//   - Observation is on the request hot path: one binary search over ~24
//     floats plus two atomic adds, no locks, no allocation.
//   - The sum is kept in integer nanoseconds, not float seconds, so it is
//     exact (no float rounding accumulates) and exporters can derive the
//     seconds value losslessly at read time.
//   - Quantiles are estimated from the buckets by linear interpolation,
//     the same estimate a Prometheus histogram_quantile() would produce,
//     so a dashboard over /metrics and a BENCH_load.json report agree.
package hist

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefaultBounds are the upper bucket bounds (seconds) used for serving
// latency, chosen for flownetd's observed dynamic range: an in-process
// cache hit answers in a few microseconds, cached replays over HTTP in
// tens of microseconds, ordinary flow queries in hundreds of microseconds
// to tens of milliseconds, and heavy batch or pattern queries can run for
// minutes. The grid runs from 1µs to 60s and is roughly multiplicative
// (x2–x2.5 per step, a 1-2.5-5 decade pattern) so relative
// quantile-estimation error is bounded at every scale; see DESIGN.md
// "Latency telemetry" for the rationale.
var DefaultBounds = []float64{
	0.000001, 0.0000025, 0.000005,
	0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 30, 60,
}

// Histogram is a fixed-bucket histogram safe for concurrent use. Create
// one with New (or NewDefault); the zero value is not usable.
type Histogram struct {
	bounds []float64
	// counts[i] counts observations in (bounds[i-1], bounds[i]]; the last
	// slot is the +Inf bucket. Per-bucket (not cumulative) so Observe
	// touches exactly one counter.
	counts []atomic.Uint64
	sumNs  atomic.Int64
}

// New returns a histogram over the given ascending upper bounds (seconds).
// The bounds are copied. New panics on unsorted, duplicate, or non-finite
// bounds — a histogram's shape is a compile-time decision, not an input.
func New(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic("hist: bounds must be finite (the +Inf bucket is implicit)")
		}
		if i > 0 && v <= b[i-1] {
			panic("hist: bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// NewDefault returns a histogram over DefaultBounds.
func NewDefault() *Histogram { return New(DefaultBounds) }

// Observe records one duration. Negative durations clamp to zero (they can
// only come from a clock step; the zero bucket keeps them visible without
// corrupting the sum's sign).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	// sort.SearchFloat64s returns the first bound >= the value: exactly the
	// Prometheus "le" bucket the observation belongs to; values above every
	// bound land on len(bounds), the +Inf slot.
	i := sort.SearchFloat64s(h.bounds, d.Seconds())
	// The sum lands before the bucket count: a Snapshot (which reads counts
	// before the sum) therefore never sees a counted observation whose
	// nanoseconds are still missing, so a mean derived from one snapshot
	// cannot under-report.
	h.sumNs.Add(d.Nanoseconds())
	h.counts[i].Add(1)
}

// Bounds returns the histogram's upper bounds (not a copy; callers must
// not modify it).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Snapshot is a point-in-time copy of a Histogram's counters.
type Snapshot struct {
	// Bounds are the finite upper bounds (seconds); Counts has one more
	// entry, the +Inf bucket, and is per-bucket, not cumulative.
	Bounds []float64
	Counts []uint64
	// Count is the total observation count — by construction exactly the
	// sum of Counts, i.e. what the top cumulative (+Inf) bucket reports.
	Count uint64
	// SumNs is the exact accumulated duration in nanoseconds.
	SumNs int64
}

// Snapshot copies the current counters. Concurrent observations may or may
// not be included; Count always equals the sum of Counts (the exposition
// invariant "_count == the +Inf bucket" holds for every snapshot). Bucket
// counts are read before the sum, pairing with Observe's write order: the
// snapshot's SumNs covers at least every observation it counted, so an
// average derived from one snapshot may over-report a hair under
// concurrency but never under-report.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{Bounds: h.bounds, Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.SumNs = h.sumNs.Load()
	return s
}

// Cumulative returns the running totals of Counts — the values of the
// Prometheus _bucket samples, ending with the total count under +Inf.
func (s Snapshot) Cumulative() []uint64 {
	cum := make([]uint64, len(s.Counts))
	var total uint64
	for i, c := range s.Counts {
		total += c
		cum[i] = total
	}
	return cum
}

// Quantile estimates the q-quantile (0 <= q <= 1) in seconds by linear
// interpolation inside the bucket holding the target rank, the
// histogram_quantile() estimate. Observations in the +Inf bucket are
// reported as the largest finite bound (the estimate cannot exceed what
// the buckets resolve). Returns 0 when the histogram is empty.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i == len(s.Bounds) {
			// +Inf bucket: no finite upper edge to interpolate toward.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	// Unreachable: cum == Count >= rank by the time the loop ends.
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns the exact mean observation in seconds (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNs) / 1e9 / float64(s.Count)
}
