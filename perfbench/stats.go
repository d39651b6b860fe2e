package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (xs is not modified).
// It works on raw samples, never on histogram buckets.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailMean is the mean of the largest share of xs (at least one sample):
// the average of the tail beyond the (1-share)-quantile. Unlike a single
// order statistic it does not snap between the few discrete sizes a
// heavy-tailed job mix has at its top.
func tailMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(1, int(math.Round(share*float64(len(s)))))
	return mean(s[len(s)-k:])
}

// gmean is the geometric mean of positive xs.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0 (a layer absent from the workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+sys CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces two collections (the second empties what sync.Pools
// kept through the first) and reads the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// goStats reads the Go runtime's cumulative GC CPU, total CPU, heap bytes
// allocated and heap objects allocated (runtime/metrics).
type goStats struct {
	gcCPU, totalCPU      float64
	allocBytes, allocObj uint64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		g.allocObj = s[3].Value.Uint64()
	}
	return g
}

// host is the fingerprint printed with every result, so figures from
// different machines are never compared silently.
type host struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Hostname   string  `json:"hostname"`
	MemmoveNs  float64 `json:"memmove_16mib_ns"`
}

func fingerprint() host {
	name, _ := os.Hostname() // informational only
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Hostname:   name,
		MemmoveNs:  calibrate(),
	}
}

// calibrate times a fixed 16 MiB memmove and returns the median of 15
// copies in ns: a host speed reference that does not depend on the
// program under test.
func calibrate() float64 {
	src := make([]byte, 16<<20)
	dst := make([]byte, len(src))
	for i := range src {
		src[i] = byte(i)
	}
	ds := make([]float64, 15)
	for i := range ds {
		t0 := time.Now()
		copy(dst, src)
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	return quantile(ds, 0.5)
}
