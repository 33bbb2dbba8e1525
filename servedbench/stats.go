package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples holds exact per-operation latencies. Quantiles are read from the
// sorted samples (nearest rank), never from histogram buckets, so a 40µs
// median is reported as measured.
type samples []time.Duration

// quantile returns the nearest-rank p-quantile (0 < p <= 1) in
// milliseconds.
func (s samples) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	return ms(sorted[rank(len(sorted), p)-1])
}

// rank is the 1-based nearest rank of quantile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = []float64{0.999, 0.998, 0.995, 0.99, 0.98, 0.975, 0.95, 0.9, 0.875, 0.85, 0.8, 0.75, 0.5}

// tailPercentile is the highest percentile of tailLadder with at least 10
// samples beyond it among n samples. Rounds have a fixed size, so the
// choice is the same in every round and every run of a workload.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0.5
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user+system CPU time (getrusage RUSAGE_SELF).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the machine-wide steal counter from /proc/stat, in
// USER_HZ ticks; -1 where it is unavailable. It is a diagnostic only.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// runtimeSample is a snapshot of the Go runtime counters the per-layer
// runtime metrics are deltas of.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r runtimeSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = ss[1].Value.Uint64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ss[2].Value.Float64()
	}
	return r
}

// liveHeapMB forces a GC and returns the live heap in MB. The second GC
// frees what the first only moved to sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
