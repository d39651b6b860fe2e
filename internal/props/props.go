// Package props implements the property algebra of the declarative
// programming model from "Programming Fully Disaggregated Systems"
// (HotOS '23, §2.1).
//
// Applications never name physical memory devices. Instead they declare
// Requirements — what the memory they need must provide (latency class,
// persistence, coherence, …) — and the runtime matches those against the
// Capabilities that each (simulated) physical device offers, as seen from
// the compute device executing the task.
//
// Requirements split into hard constraints (Match) and soft preferences
// (Score). A device is a placement candidate only if Match succeeds;
// candidates are then ranked by Score.
package props

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Tri is a three-valued constraint: a requirement may demand a feature,
// forbid it, or not care.
type Tri uint8

const (
	Any Tri = iota // no constraint
	Require
	Forbid
)

// String returns the constraint name.
func (t Tri) String() string {
	switch t {
	case Any:
		return "any"
	case Require:
		return "require"
	case Forbid:
		return "forbid"
	default:
		return fmt.Sprintf("Tri(%d)", uint8(t))
	}
}

// Satisfied reports whether a capability value v satisfies the constraint.
func (t Tri) Satisfied(v bool) bool {
	switch t {
	case Require:
		return v
	case Forbid:
		return !v
	default:
		return true
	}
}

// LatencyClass buckets access latency as seen from the requesting compute
// device. The paper's Table 1 spans roughly four orders of magnitude, which
// the classes discretize for declarative use.
type LatencyClass uint8

const (
	LatencyAny    LatencyClass = iota
	LatencyLow                 // ≤ 200ns: cache, HBM, DRAM, GDDR-from-GPU
	LatencyMedium              // ≤ 2µs: PMem, CXL-DRAM, NUMA-remote
	LatencyHigh                // ≤ 100µs: NIC-attached far memory, fast SSD
	LatencyBulk                // anything, incl. HDD
)

// String returns the class name.
func (c LatencyClass) String() string {
	switch c {
	case LatencyAny:
		return "any"
	case LatencyLow:
		return "low"
	case LatencyMedium:
		return "medium"
	case LatencyHigh:
		return "high"
	case LatencyBulk:
		return "bulk"
	default:
		return fmt.Sprintf("LatencyClass(%d)", uint8(c))
	}
}

// Ceiling returns the maximum access latency admitted by the class.
func (c LatencyClass) Ceiling() time.Duration {
	switch c {
	case LatencyLow:
		return 200 * time.Nanosecond
	case LatencyMedium:
		return 2 * time.Microsecond
	case LatencyHigh:
		return 100 * time.Microsecond
	default:
		return time.Hour // effectively unbounded
	}
}

// ClassifyLatency maps a concrete latency to the tightest class that admits it.
func ClassifyLatency(d time.Duration) LatencyClass {
	switch {
	case d <= LatencyLow.Ceiling():
		return LatencyLow
	case d <= LatencyMedium.Ceiling():
		return LatencyMedium
	case d <= LatencyHigh.Ceiling():
		return LatencyHigh
	default:
		return LatencyBulk
	}
}

// Capabilities describes what a physical memory device offers as seen from a
// specific compute device (topology-adjusted: latency and bandwidth include
// the interconnect path).
type Capabilities struct {
	Latency         time.Duration // effective access latency
	Bandwidth       float64       // effective bytes/second
	Granularity     int           // access granularity in bytes (64 for cache lines, 4096 for block devices)
	ByteAddressable bool          // true if loads/stores work at byte granularity
	Coherent        bool          // participates in hardware cache coherence with the compute device
	Sync            bool          // synchronous load/store interface is sensible (near memory)
	Persistent      bool          // survives power loss
	Remote          bool          // reached through a NIC (off-node)
	FreeCapacity    int64         // bytes currently allocatable
}

// Requirements is the declarative memory request of §2.1: the task states
// what properties the memory must have; the runtime picks the device.
type Requirements struct {
	// Hard constraints.
	Capacity     int64         // bytes needed (0 → caller sizes later, still must fit granularity)
	Latency      LatencyClass  // admitted latency ceiling
	MinBandwidth float64       // bytes/second floor; 0 → unconstrained
	Persistent   Tri           // Require → must survive crashes (e.g. T5 in Fig. 2)
	Coherent     Tri           // Require → hardware coherence needed (Global State)
	Sync         Tri           // Require → synchronous interface; Forbid → async-only is fine
	ByteAddr     Tri           // Require → no block devices
	MaxLatency   time.Duration // optional absolute ceiling; 0 → use Latency class

	// Soft preferences (scored, never disqualifying).
	Confidential bool // data is sensitive; prefer non-remote devices, runtime encrypts otherwise
	PreferLocal  bool // prefer devices attached to the executing compute device's node
}

// Violation describes why a device failed to match a requirement set.
type Violation struct {
	Field  string
	Detail string
}

func (v Violation) String() string { return v.Field + ": " + v.Detail }

// Matches reports whether capabilities satisfy all hard constraints. It is
// the allocation-free form of Match that placers call once per candidate
// device; Match adds the violation list for error messages.
func (r Requirements) Matches(c Capabilities) bool {
	if r.Capacity > 0 && c.FreeCapacity < r.Capacity {
		return false
	}
	ceiling := r.Latency.Ceiling()
	if r.MaxLatency > 0 {
		ceiling = r.MaxLatency
	}
	return c.Latency <= ceiling &&
		!(r.MinBandwidth > 0 && c.Bandwidth < r.MinBandwidth) &&
		r.Persistent.Satisfied(c.Persistent) &&
		r.Coherent.Satisfied(c.Coherent) &&
		r.Sync.Satisfied(c.Sync) &&
		r.ByteAddr.Satisfied(c.ByteAddressable)
}

// Match reports whether capabilities satisfy all hard constraints and, if
// not, the list of violations (for diagnostics and tests).
func (r Requirements) Match(c Capabilities) (bool, []Violation) {
	var vs []Violation
	if r.Capacity > 0 && c.FreeCapacity < r.Capacity {
		vs = append(vs, Violation{"capacity", fmt.Sprintf("need %d, free %d", r.Capacity, c.FreeCapacity)})
	}
	ceiling := r.Latency.Ceiling()
	if r.MaxLatency > 0 {
		ceiling = r.MaxLatency
	}
	if c.Latency > ceiling {
		vs = append(vs, Violation{"latency", fmt.Sprintf("%v exceeds ceiling %v", c.Latency, ceiling)})
	}
	if r.MinBandwidth > 0 && c.Bandwidth < r.MinBandwidth {
		vs = append(vs, Violation{"bandwidth", fmt.Sprintf("%.0f < required %.0f", c.Bandwidth, r.MinBandwidth)})
	}
	if !r.Persistent.Satisfied(c.Persistent) {
		vs = append(vs, Violation{"persistent", fmt.Sprintf("%s but device persistent=%t", r.Persistent, c.Persistent)})
	}
	if !r.Coherent.Satisfied(c.Coherent) {
		vs = append(vs, Violation{"coherent", fmt.Sprintf("%s but device coherent=%t", r.Coherent, c.Coherent)})
	}
	if !r.Sync.Satisfied(c.Sync) {
		vs = append(vs, Violation{"sync", fmt.Sprintf("%s but device sync=%t", r.Sync, c.Sync)})
	}
	if !r.ByteAddr.Satisfied(c.ByteAddressable) {
		vs = append(vs, Violation{"byteaddr", fmt.Sprintf("%s but device byteaddr=%t", r.ByteAddr, c.ByteAddressable)})
	}
	return len(vs) == 0, vs
}

// Score ranks a matching device: higher is better. The score rewards low
// latency and high bandwidth relative to the requirement ceiling, and
// penalizes wasting scarce premium devices on undemanding requests
// (capacity pressure) as well as remote placement of confidential data.
// It reads only static capabilities, never FreeCapacity, so placers score
// a topology table entry's cached capabilities directly.
func (r Requirements) Score(c Capabilities) float64 {
	ceiling := r.Latency.Ceiling()
	if r.MaxLatency > 0 {
		ceiling = r.MaxLatency
	}
	// Latency headroom in [0,1]: 1 when instant, →0 approaching the ceiling.
	lat := 1.0 - float64(c.Latency)/float64(ceiling)
	if lat < 0 {
		lat = 0
	}
	score := 10 * lat
	// Bandwidth on a log-ish scale: each doubling above 1 GB/s adds a point.
	bw := c.Bandwidth / 1e9
	for bw > 1 && score < 1e6 {
		score++
		bw /= 2
	}
	if r.Confidential && c.Remote {
		score -= 5 // still allowed (runtime encrypts) but dispreferred
	}
	if r.PreferLocal && c.Remote {
		score -= 3
	}
	// Don't burn persistent devices on scratch data, nor coherent devices
	// on requests that don't need coherence: leave premium capacity for
	// requests that require it.
	if r.Persistent == Any && c.Persistent {
		score -= 1
	}
	if r.Coherent == Any && c.Coherent {
		score -= 0.5
	}
	return score
}

// Merge combines two requirement sets into the weakest set satisfying both
// (used when two tasks share one region: the region must satisfy the union
// of constraints). Conflicting Require/Forbid pairs return an error.
func Merge(a, b Requirements) (Requirements, error) {
	out := a
	if b.Capacity > out.Capacity {
		out.Capacity = b.Capacity
	}
	if b.Latency != LatencyAny && (out.Latency == LatencyAny || b.Latency < out.Latency) {
		out.Latency = b.Latency
	}
	if b.MinBandwidth > out.MinBandwidth {
		out.MinBandwidth = b.MinBandwidth
	}
	if b.MaxLatency > 0 && (out.MaxLatency == 0 || b.MaxLatency < out.MaxLatency) {
		out.MaxLatency = b.MaxLatency
	}
	var err error
	out.Persistent, err = mergeTri("persistent", a.Persistent, b.Persistent)
	if err != nil {
		return out, err
	}
	out.Coherent, err = mergeTri("coherent", a.Coherent, b.Coherent)
	if err != nil {
		return out, err
	}
	out.Sync, err = mergeTri("sync", a.Sync, b.Sync)
	if err != nil {
		return out, err
	}
	out.ByteAddr, err = mergeTri("byteaddr", a.ByteAddr, b.ByteAddr)
	if err != nil {
		return out, err
	}
	out.Confidential = a.Confidential || b.Confidential
	out.PreferLocal = a.PreferLocal || b.PreferLocal
	return out, nil
}

func mergeTri(field string, a, b Tri) (Tri, error) {
	switch {
	case a == b:
		return a, nil
	case a == Any:
		return b, nil
	case b == Any:
		return a, nil
	default:
		return Any, fmt.Errorf("props: conflicting %s constraints (%s vs %s)", field, a, b)
	}
}

// String renders the requirement set compactly for reports and errors.
func (r Requirements) String() string {
	var parts []string
	if r.Capacity > 0 {
		parts = append(parts, fmt.Sprintf("cap=%d", r.Capacity))
	}
	if r.Latency != LatencyAny {
		parts = append(parts, "lat="+r.Latency.String())
	}
	if r.MaxLatency > 0 {
		parts = append(parts, fmt.Sprintf("maxlat=%v", r.MaxLatency))
	}
	if r.MinBandwidth > 0 {
		parts = append(parts, fmt.Sprintf("bw≥%.1fGB/s", r.MinBandwidth/1e9))
	}
	for _, f := range []struct {
		name string
		t    Tri
	}{{"persist", r.Persistent}, {"coherent", r.Coherent}, {"sync", r.Sync}, {"byteaddr", r.ByteAddr}} {
		if f.t != Any {
			parts = append(parts, f.t.String()+":"+f.name)
		}
	}
	if r.Confidential {
		parts = append(parts, "confidential")
	}
	if r.PreferLocal {
		parts = append(parts, "preferlocal")
	}
	if len(parts) == 0 {
		return "{}"
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
