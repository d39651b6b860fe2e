// Package topology models the hardware landscape of a disaggregated data
// center: compute devices (CPUs, GPUs, TPUs, FPGAs), the simulated memory
// devices of internal/memsim, and the interconnects between them (on-chip
// fabrics, memory buses, UPI cross-socket links, PCIe/CXL, SATA, and the
// network fabric reaching memory nodes).
//
// The central question the paper's §2.2 asks — "which physical memory device
// best serves this request *from this compute device*?" — is answered here:
// Path computes the cheapest interconnect route between a compute device and
// a memory device, and EffectiveCaps folds the path cost into the device's
// raw capabilities. The same memory device therefore presents different
// capabilities to different compute devices (Figure 3).
package topology

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/memsim"
	"repro/internal/props"
)

// ComputeKind enumerates the compute device types of Figure 1.
type ComputeKind uint8

const (
	CPU ComputeKind = iota
	GPU
	TPU
	FPGA
)

// String returns the kind name.
func (k ComputeKind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	case TPU:
		return "TPU"
	case FPGA:
		return "FPGA"
	default:
		return fmt.Sprintf("ComputeKind(%d)", uint8(k))
	}
}

// ComputeDevice is a processing element tasks can be scheduled on.
type ComputeDevice struct {
	ID    string
	Kind  ComputeKind
	Node  string  // hosting node (chassis); "" for none
	Gops  float64 // billions of scalar ops per second, the scheduler's speed model
	Cores int     // parallel task slots
}

// LinkKind tags interconnect technologies, mostly for reporting.
type LinkKind uint8

const (
	LinkOnChip LinkKind = iota
	LinkMemBus          // DDR memory bus
	LinkUPI             // cross-socket coherent link
	LinkPCIe            // PCIe or CXL
	LinkSATA
	LinkNIC // network fabric hop
)

// String returns the link technology name.
func (k LinkKind) String() string {
	switch k {
	case LinkOnChip:
		return "on-chip"
	case LinkMemBus:
		return "membus"
	case LinkUPI:
		return "UPI"
	case LinkPCIe:
		return "PCIe/CXL"
	case LinkSATA:
		return "SATA"
	case LinkNIC:
		return "NIC"
	default:
		return fmt.Sprintf("LinkKind(%d)", uint8(k))
	}
}

// Link is a bidirectional edge between two endpoints with its own latency
// and bandwidth. Endpoints are string IDs: compute devices, memory devices,
// or internal switches ("node0/pcie", "fabric").
type Link struct {
	A, B      string
	Kind      LinkKind
	Latency   time.Duration
	Bandwidth float64 // bytes/second
	Coherent  bool    // link preserves hardware cache coherence (memory bus, UPI, CXL)
}

// PathInfo is the result of routing from a compute device to a memory device.
type PathInfo struct {
	Hops      []Link
	Latency   time.Duration // sum of link latencies (excludes the device's own latency)
	Bandwidth float64       // min of link bandwidths (math.Inf(1) for the empty path)
	Coherent  bool          // every hop preserves coherence
}

// Topology is the full hardware graph. Devices are interned to dense
// indices in insertion order when they are added (ComputeIndex,
// MemoryIndex); the hot paths run on those indices against the lazily
// built lookup table of table.go.
type Topology struct {
	computes    []*ComputeDevice
	memories    []*memsim.Device
	computeIdx  map[string]int
	memoryIdx   map[string]int
	byKind      [FPGA + 1][]int // compute indices per kind, insertion order
	allComputes []int           // 0..len(computes)-1, the "any kind" list
	adj         map[string][]Link
	// tab is the compute×memory and compute×compute lookup table, nil until
	// the first lookup after construction or after any mutation.
	tab atomic.Pointer[table]
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		computeIdx: make(map[string]int),
		memoryIdx:  make(map[string]int),
		adj:        make(map[string][]Link),
	}
}

// AddCompute registers a compute device. IDs must be unique across the graph.
func (t *Topology) AddCompute(c *ComputeDevice) error {
	if c == nil || c.ID == "" {
		return fmt.Errorf("topology: compute device must have an id")
	}
	if t.has(c.ID) {
		return fmt.Errorf("topology: duplicate id %q", c.ID)
	}
	if c.Gops <= 0 {
		return fmt.Errorf("topology: %s: Gops must be positive", c.ID)
	}
	if c.Cores <= 0 {
		c.Cores = 1
	}
	i := len(t.computes)
	t.computes = append(t.computes, c)
	t.computeIdx[c.ID] = i
	t.allComputes = append(t.allComputes, i)
	if int(c.Kind) < len(t.byKind) {
		t.byKind[c.Kind] = append(t.byKind[c.Kind], i)
	}
	t.tab.Store(nil)
	return nil
}

// AddMemory registers a memory device built by memsim.
func (t *Topology) AddMemory(d *memsim.Device) error {
	if d == nil {
		return fmt.Errorf("topology: nil memory device")
	}
	if t.has(d.ID) {
		return fmt.Errorf("topology: duplicate id %q", d.ID)
	}
	t.memoryIdx[d.ID] = len(t.memories)
	t.memories = append(t.memories, d)
	t.tab.Store(nil)
	return nil
}

func (t *Topology) has(id string) bool {
	if _, ok := t.computeIdx[id]; ok {
		return true
	}
	_, ok := t.memoryIdx[id]
	return ok
}

// Connect adds a bidirectional link. Unknown endpoints are allowed — they
// become switches (pure routing vertices).
func (t *Topology) Connect(l Link) error {
	if l.A == "" || l.B == "" || l.A == l.B {
		return fmt.Errorf("topology: invalid link %q-%q", l.A, l.B)
	}
	if l.Latency < 0 || l.Bandwidth <= 0 {
		return fmt.Errorf("topology: link %s-%s needs latency ≥ 0 and bandwidth > 0", l.A, l.B)
	}
	t.adj[l.A] = append(t.adj[l.A], l)
	rev := l
	rev.A, rev.B = l.B, l.A
	t.adj[l.B] = append(t.adj[l.B], rev)
	t.tab.Store(nil) // routes changed
	return nil
}

// Compute returns a registered compute device.
func (t *Topology) Compute(id string) (*ComputeDevice, bool) {
	i, ok := t.computeIdx[id]
	if !ok {
		return nil, false
	}
	return t.computes[i], true
}

// Memory returns a registered memory device.
func (t *Topology) Memory(id string) (*memsim.Device, bool) {
	i, ok := t.memoryIdx[id]
	if !ok {
		return nil, false
	}
	return t.memories[i], true
}

// ComputeIndex returns the dense index of a compute device: its position
// in insertion order, stable for the topology's lifetime.
func (t *Topology) ComputeIndex(id string) (int, bool) {
	i, ok := t.computeIdx[id]
	return i, ok
}

// MemoryIndex returns the dense index of a memory device: its position in
// insertion order, stable for the topology's lifetime.
func (t *Topology) MemoryIndex(id string) (int, bool) {
	i, ok := t.memoryIdx[id]
	return i, ok
}

// ComputeAt returns the compute device with dense index i.
func (t *Topology) ComputeAt(i int) *ComputeDevice { return t.computes[i] }

// MemoryAt returns the memory device with dense index i.
func (t *Topology) MemoryAt(i int) *memsim.Device { return t.memories[i] }

// NumComputes returns the number of compute devices (one past the largest
// dense compute index).
func (t *Topology) NumComputes() int { return len(t.computes) }

// NumMemories returns the number of memory devices (one past the largest
// dense memory index).
func (t *Topology) NumMemories() int { return len(t.memories) }

// Computes returns all compute devices in insertion order.
func (t *Topology) Computes() []*ComputeDevice {
	return append([]*ComputeDevice(nil), t.computes...)
}

// Memories returns all memory devices in insertion order.
func (t *Topology) Memories() []*memsim.Device {
	return append([]*memsim.Device(nil), t.memories...)
}

// ComputeIndices returns, in insertion order, the dense indices of the
// compute devices of kind k — or of every compute device when restricted is
// false (the two results of a task's DevicePref.Kind). The slice is shared:
// callers must not modify it.
func (t *Topology) ComputeIndices(k ComputeKind, restricted bool) []int {
	if !restricted {
		return t.allComputes
	}
	if int(k) < len(t.byKind) {
		return t.byKind[k]
	}
	return nil
}

// Path routes from one endpoint to another, minimizing latency (ties broken
// by hop count, then lexicographically for determinism). It returns false if
// no route exists. Routes from a compute device to a memory or compute
// device come from the lookup table; any other pair is routed on demand.
func (t *Topology) Path(from, to string) (PathInfo, bool) {
	if from == to {
		return PathInfo{Bandwidth: math.Inf(1), Coherent: true}, true
	}
	if ci, ok := t.computeIdx[from]; ok {
		if mi, ok := t.memoryIdx[to]; ok {
			e := t.Reach(ci, mi)
			return e.Path, e.OK
		}
		if cj, ok := t.computeIdx[to]; ok {
			return t.ComputePath(ci, cj)
		}
	}
	return t.route(from, to)
}

// route is the single-pair Dijkstra search behind Path for pairs outside
// the lookup table. The table's single-source search (routeFrom) must agree
// with it on every pair; the table-equivalence test keeps it as reference.
func (t *Topology) route(from, to string) (PathInfo, bool) {
	type state struct {
		lat  time.Duration
		hops int
	}
	dist := map[string]state{from: {}}
	prev := map[string]Link{}
	visited := map[string]bool{}
	for {
		// Extract the unvisited vertex with minimal (lat, hops, id).
		cur, ok := "", false
		var best state
		keys := make([]string, 0, len(dist))
		for v := range dist {
			keys = append(keys, v)
		}
		sort.Strings(keys)
		for _, v := range keys {
			if visited[v] {
				continue
			}
			s := dist[v]
			if !ok || s.lat < best.lat || (s.lat == best.lat && s.hops < best.hops) {
				cur, best, ok = v, s, true
			}
		}
		if !ok {
			return PathInfo{}, false
		}
		if cur == to {
			break
		}
		visited[cur] = true
		for _, l := range t.adj[cur] {
			nd := state{best.lat + l.Latency, best.hops + 1}
			if old, seen := dist[l.B]; !seen || nd.lat < old.lat || (nd.lat == old.lat && nd.hops < old.hops) {
				dist[l.B] = nd
				prev[l.B] = l
			}
		}
	}
	// Reconstruct.
	var hops []Link
	for v := to; v != from; {
		l := prev[v]
		hops = append(hops, l)
		v = l.A
	}
	return foldPath(hops), true
}

// EffectiveCaps folds a path's cost into a memory device's raw spec,
// producing the capabilities the device offers *as seen from* the given
// compute device. This is the paper's Figure 3 in code: DRAM looks fast from
// the local CPU and slow from a GPU across PCIe; GDDR is the reverse. The
// static capabilities come from the lookup table (Reach), FreeCapacity from
// the device's live allocation meter.
func (t *Topology) EffectiveCaps(computeID, memID string) (props.Capabilities, bool) {
	ci, ok := t.computeIdx[computeID]
	if !ok {
		return props.Capabilities{}, false
	}
	mi, ok := t.memoryIdx[memID]
	if !ok {
		return props.Capabilities{}, false
	}
	e := t.Reach(ci, mi)
	if !e.OK {
		return props.Capabilities{}, false
	}
	return e.Live(), true
}

// staticCaps folds a routed path into a memory device's raw spec — every
// capability except FreeCapacity, which changes with every allocation.
func staticCaps(mem *memsim.Device, path PathInfo) props.Capabilities {
	bw := mem.Bandwidth
	if path.Bandwidth < bw {
		bw = path.Bandwidth
	}
	remote := false
	for _, l := range path.Hops {
		if l.Kind == LinkNIC {
			remote = true
			break
		}
	}
	return props.Capabilities{
		Latency:         mem.Latency + path.Latency,
		Bandwidth:       bw,
		Granularity:     mem.Granularity,
		ByteAddressable: mem.ByteAddressable(),
		Coherent:        mem.Coherent && path.Coherent,
		Sync:            mem.Sync && !remote,
		Persistent:      mem.Persistent,
		Remote:          remote,
	}
}

// AccessTime returns the virtual completion time of a memory access of size
// bytes issued by computeID against memID at virtual time now: path latency
// both ways is added to the device's queued service time, and transfer time
// is scaled up if the path is narrower than the device.
func (t *Topology) AccessTime(computeID, memID string, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) (time.Duration, error) {
	mem, ok := t.Memory(memID)
	if !ok {
		return 0, fmt.Errorf("topology: unknown memory device %q", memID)
	}
	path, ok := t.Path(computeID, memID)
	if !ok {
		return 0, fmt.Errorf("topology: no path %s→%s", computeID, memID)
	}
	return accessVia(path, mem, now, size, kind, pat), nil
}

// AccessAt is AccessTime on dense indices.
func (t *Topology) AccessAt(ci, mi int, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) (time.Duration, error) {
	e := t.Reach(ci, mi)
	if !e.OK {
		return 0, t.noPath(ci, mi)
	}
	return accessVia(e.Path, e.Mem, now, size, kind, pat), nil
}

// accessVia prices an access on the device-global service queue.
func accessVia(path PathInfo, mem *memsim.Device, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) time.Duration {
	done := mem.Access(now+path.Latency, size, kind, pat)
	// If the path is the bottleneck, stretch the transfer phase.
	done += pathStretch(path, mem, size)
	return done + path.Latency
}

func (t *Topology) noPath(ci, mi int) error {
	return fmt.Errorf("topology: no path %s→%s", t.computes[ci].ID, t.memories[mi].ID)
}

// ResetQueues drains every memory device's service queue — used between
// measurement phases so one experiment's virtual backlog cannot leak into
// the next.
func (t *Topology) ResetQueues() {
	for _, m := range t.memories {
		m.ResetQueue()
	}
}

// Addressable reports whether the compute device can address the memory
// device at all (a route exists). Block devices remain addressable — the
// runtime wraps them behind async interfaces.
func (t *Topology) Addressable(computeID, memID string) bool {
	_, ok := t.Path(computeID, memID)
	return ok
}
