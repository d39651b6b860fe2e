// Package region implements the paper's central abstraction: typed Memory
// Regions with ownership (§2.2). A region is a logical view of physical
// memory, declared and identified by its *properties* rather than its
// location; the Manager maps each request onto a simulated physical device
// that satisfies those properties relative to the requesting compute device,
// carves space out of the device with a buddy allocator, and tracks
// ownership until the last owner releases the region.
//
// Ownership follows §2.2(2): a region is either exclusively owned by one
// task — transferable to the next task like C++ move semantics (Fig. 4) —
// or shared among concurrently running tasks, which forces coherent
// placement and pays directory-protocol costs on every access.
//
// Confidential regions placed off-node are transparently encrypted at rest
// (AES-CTR): the property travels with the region, not with the code.
package region

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/allocator"
	"repro/internal/coherence"
	"repro/internal/memsim"
	"repro/internal/props"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Errors reported by the region layer.
var (
	ErrStaleHandle   = errors.New("region: stale handle (ownership was moved)")
	ErrFreed         = errors.New("region: region already freed")
	ErrNotOwner      = errors.New("region: caller does not own this region")
	ErrNotShareable  = errors.New("region: region class cannot be shared")
	ErrNotMovable    = errors.New("region: region class cannot be transferred")
	ErrExclusive     = errors.New("region: exclusively owned by another task")
	ErrOutOfBounds   = errors.New("region: access out of bounds")
	ErrNoPlacement   = errors.New("region: no device satisfies the requirements")
	ErrSyncFarAccess = errors.New("region: synchronous access to async-only device")
)

// Counters the region layer reports.
var (
	ctrAllocs            = telemetry.DeclareCounter(telemetry.LayerRegion, "allocs")
	ctrFrees             = telemetry.DeclareCounter(telemetry.LayerRegion, "frees")
	ctrBytesAllocated    = telemetry.DeclareCounter(telemetry.LayerRegion, "bytes_allocated")
	ctrBytesRead         = telemetry.DeclareCounter(telemetry.LayerRegion, "bytes_read")
	ctrBytesWritten      = telemetry.DeclareCounter(telemetry.LayerRegion, "bytes_written")
	ctrShares            = telemetry.DeclareCounter(telemetry.LayerRegion, "shares")
	ctrTransfersZeroCopy = telemetry.DeclareCounter(telemetry.LayerRegion, "transfers_zero_copy")
	ctrTransfersMigrated = telemetry.DeclareCounter(telemetry.LayerRegion, "transfers_migrated")
	ctrMigrations        = telemetry.DeclareCounter(telemetry.LayerRegion, "migrations")
	ctrBytesMigrated     = telemetry.DeclareCounter(telemetry.LayerRegion, "bytes_migrated")
	ctrExports           = telemetry.DeclareCounter(telemetry.LayerRegion, "exports")
	ctrBytesExported     = telemetry.DeclareCounter(telemetry.LayerRegion, "bytes_exported")
	ctrRecalls           = telemetry.DeclareCounter(telemetry.LayerRegion, "recalls")
	ctrBytesRecalled     = telemetry.DeclareCounter(telemetry.LayerRegion, "bytes_recalled")
	ctrRecallVerbNs      = telemetry.DeclareCounter(telemetry.LayerRegion, "recall_verb_ns")
	ctrTopologyMiss      = telemetry.DeclareCounter(telemetry.LayerCoherence, "topology_miss")
	ctrInvalidations     = telemetry.DeclareCounter(telemetry.LayerCoherence, "invalidations")
	ctrWritebacks        = telemetry.DeclareCounter(telemetry.LayerCoherence, "writebacks")
	ctrFetches           = telemetry.DeclareCounter(telemetry.LayerCoherence, "fetches")
	ctrPromotions        = telemetry.DeclareCounter(telemetry.LayerPlacement, "rebalance_promotions")
	ctrDemotions         = telemetry.DeclareCounter(telemetry.LayerPlacement, "rebalance_demotions")
	ctrRebalanceExports  = telemetry.DeclareCounter(telemetry.LayerPlacement, "rebalance_exports")
	ctrRebalanceRecalls  = telemetry.DeclareCounter(telemetry.LayerPlacement, "rebalance_recalls")
)

// Owner identifies a task (or job, or application) holding a region.
type Owner string

// ID is a region identifier, unique per Manager.
type ID uint64

// Placer decides which memory device serves a request. The placement
// package provides cost-model implementations; FirstFit below is the naive
// baseline.
type Placer interface {
	// Place returns the device ID to allocate on.
	Place(req props.Requirements, computeID string) (string, error)
	// Name labels the policy in reports.
	Name() string
}

// Spec describes an allocation request — the declarative ask of §2.1.
type Spec struct {
	Name    string            // human label ("hashtable", "bloomfilter")
	Class   props.RegionClass // Table 2 class; Custom uses Req verbatim
	Size    int64             // bytes
	Req     props.Requirements
	Owner   Owner  // initial owner
	Compute string // compute device the owner runs on
	// Device, when non-empty, pins the placement to a specific memory
	// device (bypassing the placer). Used by the runtime when a shared
	// region was already co-placed for several compute devices; the pinned
	// device must still satisfy the merged requirements.
	Device string
	// Now is the requester's virtual time at allocation. Placers that
	// implement PlaceAt use it to see device queue backlog — the
	// "resource utilization" signal §3's challenges 1-3 ask the RTS to
	// track. Zero is a valid time (job start).
	Now time.Duration
	// Clock, when non-nil, is the virtual-time view all of this region's
	// accesses are queued against — an *topology.Epoch (shared FIFO view)
	// or a *topology.TaskView (one wavefront task's causal view). Handles
	// derived from the allocation (shares, transfers) inherit it, so one
	// view's backlog never leaks into another — the isolation concurrent
	// job submission requires. Nil falls back to the device-global queues
	// (legacy sequential mode).
	Clock topology.VClock
}

// PlacerAt is the optional contention-aware extension of Placer: placers
// implementing it receive the requester's virtual time and can penalize
// devices whose service queues are backed up.
type PlacerAt interface {
	PlaceAt(req props.Requirements, computeID string, now time.Duration) (string, error)
}

// PlacerEpoch is the clock-aware extension of Placer: the backlog signal is
// read from the requester's own virtual-time view (epoch or task view)
// instead of the device-global queues, so concurrent runs steer by their
// own contention.
type PlacerEpoch interface {
	PlaceEpoch(req props.Requirements, computeID string, now time.Duration, clk topology.VClock) (string, error)
}

// Region is the manager-internal state of one memory region.
type Region struct {
	id        ID
	name      string
	class     props.RegionClass
	req       props.Requirements
	device    *memsim.Device
	mi        int   // device's dense topology index
	offset    int64 // offset within the device's buddy arena
	size      int64
	blockSize int64
	data      []byte // real host backing; ciphertext when sealed
	sealed    bool   // encrypted at rest
	gen       uint64 // bumped on ownership transfer to invalidate handles
	owners    map[Owner]string
	freed     bool
	heat      uint64 // accesses since the last rebalance epoch (tiering)
	// everShared latches once the region has had more than one owner:
	// coherence pricing keys off it instead of the instantaneous owner
	// count, so the cost of an access does not depend on whether a sibling
	// task has released its share yet — a wall-clock race under parallel
	// execution. (Realistic too: the directory still tracks the lines until
	// they are dropped.)
	everShared bool
	// sharers is the happens-before sharer set: the deterministic task
	// ranks that were ever granted ownership through the rank-aware share
	// path (ShareRanked — the runtime's output fan-out). An access through
	// a ranked handle fences only against the *lower* ranks in this set
	// instead of every lower rank of the run, so a region whose sharing
	// phase has passed stops paying the global barrier. Kept ascending;
	// complete before any sharing consumer can access, because the runtime
	// grants all fan-out shares at producer completion — which
	// happens-before every consumer launch.
	sharers []int
	// openShared marks sharing through the rank-blind path (Handle.Share:
	// job globals joined mid-execution, user-level sharing). Future joiners
	// with lower ranks are unknowable there, so fencing falls back to the
	// full rank barrier whenever it is set.
	openShared bool
	// exported marks a region whose payload currently lives in the remote
	// pool (export.go): the local buddy space, device reservation, and
	// backing are released, and token names the remote placement. The
	// region keeps r.device as its pricing identity and recall target, so
	// virtual access costs never depend on whether it was away.
	exported bool
	token    string
	// dataMu serializes the real byte copies against data (and the sealed
	// flag governing them), letting the payload memcpy of concurrent tasks
	// proceed outside the manager lock. Lock order: m.mu before dataMu;
	// never acquire m.mu while holding dataMu.
	dataMu sync.Mutex
}

// Manager owns all regions, per-device allocators, the coherence directory,
// and the placement policy — RTS duties (1)–(3) of §2.3.
type Manager struct {
	topo   *topology.Topology
	placer Placer
	dir    *coherence.Directory
	reg    *telemetry.Registry

	mu      sync.Mutex
	nextID  ID
	regions map[ID]*Region
	buddies map[string]*allocator.Buddy
	backing map[int64][][]byte // block size → recycled zeroed data backings
	secret  [32]byte           // root key material for confidential regions
	// exporter, when set, is the remote memory pool cold regions can be
	// evicted to (export.go). Nil keeps all tiering node-local.
	exporter Exporter

	// missLatency prices a coherence protocol action when the effective-caps
	// lookup for the accessing compute fails (disconnected topology). The
	// protocol must never be silently free, so the charge defaults to the
	// slowest memory device's latency — pessimistic but deterministic.
	// Immutable after NewManager.
	missLatency time.Duration
}

// Config assembles a Manager.
type Config struct {
	Topology  *topology.Topology
	Placer    Placer               // nil → FirstFit baseline
	Telemetry *telemetry.Registry  // nil → disabled
	Directory *coherence.Directory // nil → fresh directory
}

// NewManager builds a region manager.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Topology == nil {
		return nil, errors.New("region: topology required")
	}
	if cfg.Placer == nil {
		cfg.Placer = FirstFit{Topo: cfg.Topology}
	}
	if cfg.Directory == nil {
		cfg.Directory = coherence.NewDirectory()
	}
	m := &Manager{
		topo:    cfg.Topology,
		placer:  cfg.Placer,
		dir:     cfg.Directory,
		reg:     cfg.Telemetry,
		regions: make(map[ID]*Region),
		buddies: make(map[string]*allocator.Buddy),
		backing: make(map[int64][][]byte),
	}
	m.missLatency = time.Microsecond
	for _, dev := range cfg.Topology.Memories() {
		if dev.Latency > m.missLatency {
			m.missLatency = dev.Latency
		}
	}
	copy(m.secret[:], "repro/disagg-region-root-key-v1!")
	return m, nil
}

// backingClassCap bounds each block-size class of the backing free list, so
// a burst of large regions can't pin their memory forever.
const backingClassCap = 16

// getBacking returns a zeroed backing slice of length size, reusing a
// recycled buffer of the same buddy block class when one is available —
// region churn in serving batches otherwise reallocates identical backings
// every job. Caller holds m.mu.
func (m *Manager) getBacking(block, size int64) []byte {
	if list := m.backing[block]; len(list) > 0 {
		buf := list[len(list)-1]
		m.backing[block] = list[:len(list)-1]
		clear(buf) // preserve the fresh-allocation zero-fill contract
		return buf[:size]
	}
	return make([]byte, size, block)
}

// putBacking recycles a freed region's backing. Caller holds m.mu.
func (m *Manager) putBacking(block int64, buf []byte) {
	if int64(cap(buf)) < block || len(m.backing[block]) >= backingClassCap {
		return
	}
	m.backing[block] = append(m.backing[block], buf[:block])
}

// Topology returns the hardware graph the manager places onto.
func (m *Manager) Topology() *topology.Topology { return m.topo }

// Directory exposes the coherence directory (for tests and reports).
func (m *Manager) Directory() *coherence.Directory { return m.dir }

// largestPow2 returns the largest power of two ≤ n.
func largestPow2(n int64) int64 {
	p := int64(1)
	for p<<1 > 0 && p<<1 <= n {
		p <<= 1
	}
	return p
}

// buddyFor lazily creates the allocator for a device. Caller holds m.mu.
func (m *Manager) buddyFor(dev *memsim.Device) (*allocator.Buddy, error) {
	if b, ok := m.buddies[dev.ID]; ok {
		return b, nil
	}
	b, err := allocator.New(largestPow2(dev.Capacity))
	if err != nil {
		return nil, err
	}
	m.buddies[dev.ID] = b
	return b, nil
}

// Alloc satisfies a declarative memory request: it merges the class-default
// properties with the caller's refinements, asks the placer for a device,
// validates the match, reserves capacity, and returns the initial owner's
// handle.
func (m *Manager) Alloc(spec Spec) (*Handle, error) {
	if spec.Size <= 0 {
		return nil, fmt.Errorf("region: size %d", spec.Size)
	}
	if spec.Owner == "" {
		return nil, errors.New("region: owner required")
	}
	ci, ok := m.topo.ComputeIndex(spec.Compute)
	if !ok {
		return nil, fmt.Errorf("region: unknown compute device %q", spec.Compute)
	}
	req, err := props.Merge(spec.Class.Defaults(), spec.Req)
	if err != nil {
		return nil, err
	}
	req.Capacity = allocator.BlockSize(spec.Size)

	devID := spec.Device
	if devID == "" {
		switch p := m.placer.(type) {
		case PlacerEpoch:
			if spec.Clock != nil {
				devID, err = p.PlaceEpoch(req, spec.Compute, spec.Now, spec.Clock)
				break
			}
			if pa, ok := m.placer.(PlacerAt); ok {
				devID, err = pa.PlaceAt(req, spec.Compute, spec.Now)
			} else {
				devID, err = m.placer.Place(req, spec.Compute)
			}
		case PlacerAt:
			devID, err = p.PlaceAt(req, spec.Compute, spec.Now)
		default:
			devID, err = m.placer.Place(req, spec.Compute)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %s for %s on %s: %v", ErrNoPlacement, req, spec.Name, spec.Compute, err)
		}
	}
	mi, ok := m.topo.MemoryIndex(devID)
	if !ok {
		return nil, fmt.Errorf("region: placer chose unknown device %q", devID)
	}
	reach := m.topo.Reach(ci, mi)
	dev := reach.Mem
	if dev.HardwareManaged {
		return nil, fmt.Errorf("region: %s is hardware-managed and cannot host regions", devID)
	}
	if !reach.OK {
		return nil, fmt.Errorf("region: %s cannot address %s", spec.Compute, devID)
	}
	caps := reach.Live()
	if ok, viol := req.Match(caps); !ok {
		return nil, fmt.Errorf("%w: placer chose %s violating %v", ErrNoPlacement, devID, viol)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	buddy, err := m.buddyFor(dev)
	if err != nil {
		return nil, err
	}
	off, err := buddy.Alloc(spec.Size)
	if err != nil {
		return nil, err
	}
	block := allocator.BlockSize(spec.Size)
	if err := dev.Reserve(block); err != nil {
		buddy.Free(off) //nolint:errcheck // offset came from this buddy
		return nil, err
	}
	id := m.nextID
	m.nextID++
	r := &Region{
		id: id, name: spec.Name, class: spec.Class, req: req,
		device: dev, mi: mi, offset: off, size: spec.Size, blockSize: block,
		data:   m.getBacking(block, spec.Size),
		sealed: req.Confidential && caps.Remote,
		owners: map[Owner]string{spec.Owner: spec.Compute},
	}
	m.regions[id] = r
	m.reg.Handle(ctrAllocs).Add(1)
	m.reg.Handle(ctrBytesAllocated).Add(block)
	return &Handle{m: m, id: id, gen: r.gen, owner: spec.Owner, compute: spec.Compute, ci: ci, clock: spec.Clock, rank: -1}, nil
}

// accessTime routes a virtual memory access from compute ci to memory mi
// through the handle's clock when one is set, falling back to the
// device-global queues.
func (m *Manager) accessTime(clk topology.VClock, ci, mi int, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) (time.Duration, error) {
	if clk != nil {
		return clk.AccessAt(ci, mi, now, size, kind, pat)
	}
	return m.topo.AccessAt(ci, mi, now, size, kind, pat)
}

// lookup returns the live region for a handle. Caller holds m.mu.
func (m *Manager) lookup(h *Handle) (*Region, error) {
	r, ok := m.regions[h.id]
	if !ok {
		return nil, ErrFreed
	}
	if r.freed {
		return nil, ErrFreed
	}
	if r.gen != h.gen {
		return nil, ErrStaleHandle
	}
	if _, owns := r.owners[h.owner]; !owns {
		return nil, fmt.Errorf("%w: %s", ErrNotOwner, h.owner)
	}
	return r, nil
}

// free releases the region's resources. An exported region holds no local
// space — only its remote placement is dropped. Caller holds m.mu.
func (m *Manager) free(r *Region) {
	r.freed = true
	if r.exported {
		if m.exporter != nil {
			m.exporter.Drop(r.token) //nolint:errcheck // remote GC is best-effort
		}
		m.dir.DropRegion(uint64(r.id))
		delete(m.regions, r.id)
		m.reg.Handle(ctrFrees).Add(1)
		m.reg.Handle(ctrBytesAllocated).Add(-r.blockSize)
		return
	}
	if b, ok := m.buddies[r.device.ID]; ok {
		b.Free(r.offset) //nolint:errcheck // offset tracked by the manager
	}
	r.device.Release(r.blockSize)
	m.dir.DropRegion(uint64(r.id))
	r.dataMu.Lock() // wait out any in-flight payload copy
	buf := r.data
	r.data = nil
	r.dataMu.Unlock()
	m.putBacking(r.blockSize, buf)
	delete(m.regions, r.id)
	m.reg.Handle(ctrFrees).Add(1)
	m.reg.Handle(ctrBytesAllocated).Add(-r.blockSize)
}

// Live returns the number of live regions (leak checks in tests).
func (m *Manager) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.regions)
}

// DeviceBytes reports allocated bytes per device ID (utilization reports).
func (m *Manager) DeviceBytes() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64)
	for _, r := range m.regions {
		if r.exported {
			continue // lives in the remote pool, not on a local device
		}
		out[r.device.ID] += r.blockSize
	}
	return out
}

// FirstFit is the naive placement baseline the paper's intro warns about:
// it scans devices in topology order and takes the first hard-constraint
// match, ignoring latency/bandwidth quality entirely. Figure-1/claim
// benches contrast it against the cost-model optimizer.
type FirstFit struct {
	Topo *topology.Topology
}

// Place implements Placer.
func (f FirstFit) Place(req props.Requirements, computeID string) (string, error) {
	if ci, ok := f.Topo.ComputeIndex(computeID); ok {
		row := f.Topo.Row(ci)
		for mi := range row {
			if e := &row[mi]; !e.Mem.HardwareManaged && e.Admits(req) {
				return e.Mem.ID, nil
			}
		}
	}
	return "", fmt.Errorf("no matching device for %s from %s", req, computeID)
}

// Name implements Placer.
func (f FirstFit) Name() string { return "first-fit" }
