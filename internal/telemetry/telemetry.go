// Package telemetry provides the cross-layer observability the paper's
// challenge 8(1) calls for: when the runtime hides placement decisions,
// developers still need to debug and profile dataflows across abstraction
// layers. Every layer (region, placement, scheduler, coherence, fault
// tolerance) records into a shared Registry; spans attribute simulated time
// to (job, task, layer) so a report can slice by any of them.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Layer tags which abstraction layer produced a metric or span.
type Layer string

const (
	LayerApp       Layer = "app"
	LayerRuntime   Layer = "runtime"
	LayerRegion    Layer = "region"
	LayerPlacement Layer = "placement"
	LayerScheduler Layer = "scheduler"
	LayerCoherence Layer = "coherence"
	LayerFault     Layer = "fault"
	LayerDevice    Layer = "device"
	LayerCluster   Layer = "cluster"
)

// Registry collects counters and spans. The zero value is unusable; use
// NewRegistry. A nil *Registry is a valid no-op sink, so hot paths can be
// instrumented unconditionally.
type Registry struct {
	fixed []Counter // declared counters, by CounterID slot

	mu    sync.Mutex
	extra map[metricKey]*Counter // counters named only at run time
	spans []Span
	hists map[metricKey]*Histogram
}

// Span is one attributed slice of simulated time.
type Span struct {
	Layer Layer
	Job   string
	Task  string
	Name  string
	Start time.Duration // virtual time
	End   time.Duration
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	declared.mu.Lock()
	n := len(declared.keys)
	declared.mu.Unlock()
	return &Registry{
		fixed: make([]Counter, n),
		extra: make(map[metricKey]*Counter),
		hists: make(map[metricKey]*Histogram),
	}
}

// Add increments a named counter — the string form of Handle(id).Add.
// Nil-safe.
func (r *Registry) Add(layer Layer, name string, delta int64) {
	if r == nil {
		return
	}
	r.named(metricKey{layer, name}, true).Add(delta)
}

// Counter reads a counter (0 if absent). Nil-safe.
func (r *Registry) Counter(layer Layer, name string) int64 {
	if r == nil {
		return 0
	}
	return r.named(metricKey{layer, name}, false).Load()
}

// Observe records one sample into the named histogram, creating it with
// DefaultWaitBounds on first use — distribution metrics (queue waits,
// admission latency) where a sum counter would hide the tail. Nil-safe.
func (r *Registry) Observe(layer Layer, name string, d time.Duration) {
	if r == nil {
		return
	}
	key := metricKey{layer, name}
	r.mu.Lock()
	h, ok := r.hists[key]
	if !ok {
		h = NewHistogram(DefaultWaitBounds()...)
		r.hists[key] = h
	}
	r.mu.Unlock()
	h.Observe(d)
}

// Hist returns the named histogram, or nil if nothing was observed under
// that name. Nil-safe.
func (r *Registry) Hist(layer Layer, name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[metricKey{layer, name}]
}

// Record stores a completed span. Nil-safe.
func (r *Registry) Record(s Span) {
	if r == nil {
		return
	}
	if s.End < s.Start {
		s.End = s.Start
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of all recorded spans. Nil-safe.
func (r *Registry) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Counters returns a copy of every counter added to since the last Reset,
// keyed "layer/name". Nil-safe.
func (r *Registry) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	out := make(map[string]int64)
	declared.mu.Lock()
	keys := declared.keys[:len(r.fixed)]
	declared.mu.Unlock()
	for slot := range r.fixed {
		if c := &r.fixed[slot]; c.touched.Load() {
			out[keys[slot].String()] = c.Load()
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, c := range r.extra {
		if c.touched.Load() {
			out[k.String()] = c.Load()
		}
	}
	return out
}

func (k metricKey) String() string { return string(k.layer) + "/" + k.name }

// Reset clears all state. Handles stay valid. Nil-safe.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for slot := range r.fixed {
		r.fixed[slot].reset()
	}
	r.mu.Lock()
	for _, c := range r.extra {
		c.reset()
	}
	r.spans = nil
	r.hists = make(map[metricKey]*Histogram)
	r.mu.Unlock()
}

// ByLayer aggregates total span time per layer — the "which layer is my
// dataflow spending time in" profile.
func (r *Registry) ByLayer() map[Layer]time.Duration {
	out := make(map[Layer]time.Duration)
	for _, s := range r.Spans() {
		out[s.Layer] += s.Duration()
	}
	return out
}

// ByTask aggregates total span time per (job, task).
func (r *Registry) ByTask() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range r.Spans() {
		out[s.Job+"/"+s.Task] += s.Duration()
	}
	return out
}

// Report renders a deterministic multi-line profile, layers then counters.
func (r *Registry) Report() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	byLayer := r.ByLayer()
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, string(l))
	}
	sort.Strings(layers)
	b.WriteString("time by layer:\n")
	for _, l := range layers {
		fmt.Fprintf(&b, "  %-12s %v\n", l, byLayer[Layer(l)])
	}
	counters := r.Counters()
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("counters:\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-32s %d\n", k, counters[k])
	}
	r.mu.Lock()
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k.String()] = h
	}
	r.mu.Unlock()
	if len(hists) > 0 {
		hkeys := make([]string, 0, len(hists))
		for k := range hists {
			hkeys = append(hkeys, k)
		}
		sort.Strings(hkeys)
		b.WriteString("histograms:\n")
		for _, k := range hkeys {
			s := hists[k].Snapshot()
			fmt.Fprintf(&b, "  %-32s n=%d mean=%v p50=%v p99=%v p999=%v max=%v\n",
				k, s.Count, s.Mean, s.P50, s.P99, s.P999, s.Max)
		}
	}
	return b.String()
}

// Histogram is a fixed-bucket latency histogram for access profiles.
type Histogram struct {
	mu      sync.Mutex
	bounds  []time.Duration
	buckets []int64
	count   int64
	sum     time.Duration
	max     time.Duration
}

// NewHistogram builds a histogram with the given ascending bucket bounds;
// an implicit +Inf bucket catches the tail.
func NewHistogram(bounds ...time.Duration) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be ascending")
		}
	}
	return &Histogram{bounds: bounds, buckets: make([]int64, len(bounds)+1)}
}

// DefaultLatencyBounds spans Table 1's latency range: 100ns … 10ms.
func DefaultLatencyBounds() []time.Duration {
	return []time.Duration{
		100 * time.Nanosecond, time.Microsecond, 10 * time.Microsecond,
		100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
	}
}

// DefaultWaitBounds spans queueing/wall-clock waits: 1µs … 10s. Registry
// histograms created implicitly by Observe use these.
func DefaultWaitBounds() []time.Duration {
	return []time.Duration{
		time.Microsecond, 10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
		time.Second, 10 * time.Second,
	}
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.buckets[i]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average sample, 0 when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// HistSnapshot is a histogram's consistent summary at one instant — the
// latency figures a serving report quotes (count, mean, p50/p99/p999 tail,
// max). Taken atomically under the histogram's lock, so the quantiles are
// mutually consistent even while observations keep arriving.
type HistSnapshot struct {
	Count                     int64
	Mean, P50, P99, P999, Max time.Duration
}

// Snapshot summarizes the histogram. The p999 figure is what open-loop
// traffic runs gate on: with 100k+ submissions the 0.999 tail is resolved by
// real samples, not interpolation artifacts.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Count: h.count, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / time.Duration(h.count)
	}
	s.P50 = h.quantileLocked(0.50)
	s.P99 = h.quantileLocked(0.99)
	s.P999 = h.quantileLocked(0.999)
	return s
}

// Quantile estimates the q-quantile, q in [0,1], by locating the bucket
// holding the target rank and interpolating linearly inside it (the usual
// Prometheus-style estimator) instead of returning the raw bucket boundary.
// The tail bucket interpolates toward Max, and the estimate is clamped to
// Max so a sparsely filled bucket never reports a latency above any sample.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	target := int64(rank)
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum > target || (q == 1 && cum == h.count && c > 0) {
			var lower, upper time.Duration
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if i < len(h.bounds) {
				upper = h.bounds[i]
			} else {
				upper = h.max
			}
			frac := (rank - float64(cum-c)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			v := lower + time.Duration(frac*float64(upper-lower))
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
