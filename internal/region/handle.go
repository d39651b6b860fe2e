package region

import (
	"fmt"
	"time"

	"repro/internal/coherence"
	"repro/internal/memsim"
	"repro/internal/props"
	"repro/internal/topology"
)

// Handle is a capability to a region held by one owner. Handles implement
// the move semantics of Fig. 4: Transfer invalidates the source handle (the
// generation counter bumps), so use-after-move is a runtime error instead of
// silent aliasing — the closest a GC language gets to C++ moves (challenge 6).
//
// All access methods take and return *virtual* time: `now` is the caller's
// task-local clock, the returned value is the access completion time.
type Handle struct {
	m       *Manager
	id      ID
	gen     uint64
	owner   Owner
	compute string
	ci      int // compute's dense topology index
	// clock, when non-nil, is the virtual-time view accesses through this
	// handle queue against; nil uses the device-global queues. Derived
	// handles (Share, Transfer) inherit it; the runtime rebinds it when a
	// handle crosses a task boundary (SetClock).
	clock topology.VClock
	// fence, when non-nil, is called before any access that may run the
	// coherence protocol on a shared region. The wavefront runtime installs
	// a rank-order barrier here so directory traffic happens in schedule
	// order regardless of wall-clock interleaving. A fence error aborts the
	// access.
	fence Fence
	// rank is the deterministic schedule rank of the task accessing through
	// this handle, or -1 when unranked (sequential mode, app-level handles).
	// A ranked access on a closed-sharing region fences only against the
	// region's lower-rank sharers instead of the whole run.
	rank int
	// deps is the reusable buffer fenceDeps filters sharer ranks into, so
	// the per-access dependency list costs zero allocations. Owned by the
	// task goroutine currently bound to the handle.
	deps []int
}

// Fence is the pre-access barrier the runtime installs on handles whose
// accesses may run the coherence protocol. deps, when non-nil, lists the
// task ranks the access must happen after — the region's lower-rank sharer
// set; the fence returns once all of them have retired. A nil deps demands
// the full rank barrier (every lower rank retired): the conservative form
// used for open sharing, where future joiners are unknowable. An empty
// non-nil deps is an established happens-before — no waiting at all.
type Fence func(deps []int) error

// SetClock rebinds the virtual-time view accesses through this handle are
// priced against. The runtime calls it at task handoff points (never
// concurrently with accesses through the same handle).
func (h *Handle) SetClock(clk topology.VClock) { h.clock = clk }

// SetFence installs the pre-access barrier for coherence-priced accesses.
// Like SetClock, it is only called at handoff points.
func (h *Handle) SetFence(f Fence) { h.fence = f }

// Rebind installs clock view, task rank, and fence together — the runtime's
// task-boundary handoff. A handle crossing into a task must get all three
// from that task (its causal view, its schedule rank, its rank fence);
// rebinding them atomically at one call site keeps the triple from drifting
// apart as handoff points multiply.
func (h *Handle) Rebind(clk topology.VClock, rank int, f Fence) {
	h.clock = clk
	h.rank = rank
	h.fence = f
}

// ID returns the region id.
func (h *Handle) ID() ID { return h.id }

// Owner returns the owning task.
func (h *Handle) Owner() Owner { return h.owner }

// Size returns the region's logical size in bytes.
func (h *Handle) Size() (int64, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	r, err := h.m.lookup(h)
	if err != nil {
		return 0, err
	}
	return r.size, nil
}

// DeviceID returns the physical device the region is placed on — how tests
// and reports observe the runtime's mapping decision (Fig. 3).
func (h *Handle) DeviceID() (string, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	r, err := h.m.lookup(h)
	if err != nil {
		return "", err
	}
	return r.device.ID, nil
}

// Class returns the region class.
func (h *Handle) Class() (props.RegionClass, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	r, err := h.m.lookup(h)
	if err != nil {
		return props.Custom, err
	}
	return r.class, nil
}

// Sealed reports whether the region is encrypted at rest.
func (h *Handle) Sealed() (bool, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	r, err := h.m.lookup(h)
	if err != nil {
		return false, err
	}
	return r.sealed, nil
}

// checkRange validates [off, off+n) against the region.
func checkRange(r *Region, off, n int64) error {
	if off < 0 || n < 0 || off+n > r.size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfBounds, off, off+n, r.size)
	}
	return nil
}

// coherenceCost runs the directory protocol for the touched lines of a
// shared region and prices the actions. Caller holds m.mu.
func (m *Manager) coherenceCost(r *Region, ci int, computeID string, off, n int64, write bool) time.Duration {
	if !r.everShared || r.req.Coherent != props.Require {
		return 0 // exclusive ownership needs no protocol (§2.2)
	}
	// Each protocol action costs one traversal to the region's home device.
	// A failed caps lookup (disconnected topology) must not make the
	// protocol silently free: count the miss and charge the pessimistic
	// manager-wide default instead.
	latency := m.missLatency
	if e := m.topo.Reach(ci, r.mi); e.OK {
		latency = e.Caps.Latency
	} else {
		m.reg.Handle(ctrTopologyMiss).Add(1)
	}
	const lineSize = 64
	first := off / lineSize
	last := (off + n - 1) / lineSize
	var acts coherence.Actions
	for l := first; l <= last; l++ {
		id := coherence.LineID{Region: uint64(r.id), Line: uint64(l)}
		if write {
			acts.Add(m.dir.Write(computeID, id))
		} else {
			acts.Add(m.dir.Read(computeID, id))
		}
	}
	m.reg.Handle(ctrInvalidations).Add(int64(acts.Invalidations))
	m.reg.Handle(ctrWritebacks).Add(int64(acts.Writebacks))
	m.reg.Handle(ctrFetches).Add(int64(acts.Fetches))
	return time.Duration(acts.Total()) * latency
}

// fenceDeps decides what the pre-access fence must wait for: nil demands
// the full rank barrier (open sharing, or an unranked handle that cannot
// prove anything about ordering); otherwise the region's sharer ranks below
// the accessor's own — returned in the handle's reusable buffer, non-nil
// even when empty. Caller holds m.mu.
func (h *Handle) fenceDeps(r *Region) []int {
	if r.openShared || h.rank < 0 {
		return nil
	}
	if h.deps == nil {
		h.deps = make([]int, 0, 4)
	}
	h.deps = h.deps[:0]
	for _, s := range r.sharers {
		if s < h.rank {
			h.deps = append(h.deps, s)
		}
	}
	return h.deps
}

// access is the common data path. It moves real bytes between the region
// backing and the caller's buffer and returns the virtual completion time.
// A sync access (ReadAt, WriteAt) first checks that the device offers a
// synchronous interface from the handle's compute device — under the same
// lock acquisition. The payload copy runs under the region's own dataMu —
// outside the manager lock — so independent tasks' memcpys proceed in
// parallel.
func (h *Handle) access(now time.Duration, off int64, buf []byte, write, sync bool, pat memsim.Pattern) (time.Duration, error) {
	h.m.mu.Lock()
	r, err := h.m.lookup(h)
	if err != nil {
		h.m.mu.Unlock()
		return now, err
	}
	if sync {
		if e := h.m.topo.Reach(h.ci, r.mi); !e.OK || !e.Caps.Sync {
			h.m.mu.Unlock()
			return now, fmt.Errorf("%w: %s from %s", ErrSyncFarAccess, r.device.ID, h.compute)
		}
	}
	// Fence exactly when coherenceCost will consult the directory: the
	// everShared bit flips before any sharing consumer's handle exists, so
	// reading it here is race-free and never-shared regions skip the barrier
	// entirely — without a second lock acquisition on the hot path. Fencing
	// drops the lock (the fence blocks on other tasks, which need it), so
	// the region is re-resolved afterwards.
	if h.fence != nil && r.everShared && r.req.Coherent == props.Require {
		deps := h.fenceDeps(r)
		h.m.mu.Unlock()
		if err := h.fence(deps); err != nil {
			return now, err
		}
		h.m.mu.Lock()
		if r, err = h.m.lookup(h); err != nil {
			h.m.mu.Unlock()
			return now, err
		}
	}
	// Fetch-on-read: an exported region is recalled to its home device
	// before the access proceeds. The fabric read costs the accessor
	// wall-clock only (the verb's virtual price lands in telemetry, like
	// lazy hydration), and the region returns to the exact device it is
	// priced against, so the access below is byte-identical in virtual
	// time to a run that never exported.
	if r.exported {
		if _, err := h.m.recallLocked(r); err != nil {
			h.m.mu.Unlock()
			return now, err
		}
	}
	n := int64(len(buf))
	if err := checkRange(r, off, n); err != nil {
		h.m.mu.Unlock()
		return now, err
	}
	r.heat++
	kind := memsim.Read
	if write {
		kind = memsim.Write
	}
	done, err := h.m.accessTime(h.clock, h.ci, r.mi, now, n, kind, pat)
	if err != nil {
		h.m.mu.Unlock()
		return now, err
	}
	done += h.m.coherenceCost(r, h.ci, h.compute, off, n, write)
	if write {
		h.m.reg.Handle(ctrBytesWritten).Add(n)
	} else {
		h.m.reg.Handle(ctrBytesRead).Add(n)
	}
	// Hand the copy over to the region lock: writers of data/sealed hold
	// both locks, so holding either is enough to read them consistently.
	r.dataMu.Lock()
	h.m.mu.Unlock()
	defer r.dataMu.Unlock()
	if write {
		if r.sealed {
			sealRange(h.m.secret, r.id, r.data, off, buf)
		} else {
			copy(r.data[off:], buf)
		}
	} else {
		if r.sealed {
			unsealRange(h.m.secret, r.id, r.data, off, buf)
		} else {
			copy(buf, r.data[off:])
		}
	}
	return done, nil
}

// ReadAt synchronously reads len(buf) bytes at off. It fails on devices
// that only expose an asynchronous interface (Table 1's Sync column) —
// callers must use ReadAsync there, the point of §2.2(3).
func (h *Handle) ReadAt(now time.Duration, off int64, buf []byte) (time.Duration, error) {
	return h.access(now, off, buf, false, true, memsim.Sequential)
}

// WriteAt synchronously writes buf at off.
func (h *Handle) WriteAt(now time.Duration, off int64, buf []byte) (time.Duration, error) {
	return h.access(now, off, buf, true, true, memsim.Sequential)
}

// ReadAtRandom is ReadAt with a random-access cost profile (per-granule
// latency), for pointer-chasing workloads.
func (h *Handle) ReadAtRandom(now time.Duration, off int64, buf []byte) (time.Duration, error) {
	return h.access(now, off, buf, false, true, memsim.Random)
}

// Future is an in-flight asynchronous access (§2.2(3): far memory should be
// fetched in the background while the task computes).
type Future struct {
	done time.Duration
	err  error
}

// Await returns the virtual time at which the caller, currently at now,
// observes completion: max(now, completion). Computation performed between
// issue and Await is thereby overlapped with the transfer.
func (f *Future) Await(now time.Duration) (time.Duration, error) {
	if f.err != nil {
		return now, f.err
	}
	if f.done > now {
		return f.done, nil
	}
	return now, nil
}

// ReadAsync issues a background read and returns immediately; the returned
// Future completes at the device's virtual completion time.
func (h *Handle) ReadAsync(now time.Duration, off int64, buf []byte) *Future {
	done, err := h.access(now, off, buf, false, false, memsim.Sequential)
	return &Future{done: done, err: err}
}

// WriteAsync issues a background write.
func (h *Handle) WriteAsync(now time.Duration, off int64, buf []byte) *Future {
	done, err := h.access(now, off, buf, true, false, memsim.Sequential)
	return &Future{done: done, err: err}
}

// Hydrate writes raw bytes into the region backing without advancing any
// virtual clock, running the coherence protocol, or taking a fence. It is
// the re-materialization path for checkpoint replay: the write's virtual
// cost was already accounted when the bytes were first produced (and is
// re-charged to consumers as the recorded restore price), so pricing it
// again — or fencing on a region that is already shared with its replayed
// consumers — would make replayed virtual time diverge from the original
// run. Task bodies must never call it; they go through WriteAt/WriteAsync.
func (h *Handle) Hydrate(off int64, data []byte) error {
	h.m.mu.Lock()
	r, err := h.m.lookup(h)
	if err != nil {
		h.m.mu.Unlock()
		return err
	}
	if err := checkRange(r, off, int64(len(data))); err != nil {
		h.m.mu.Unlock()
		return err
	}
	if err := h.m.ensureLocalLocked(r); err != nil {
		h.m.mu.Unlock()
		return err
	}
	r.dataMu.Lock()
	h.m.mu.Unlock()
	defer r.dataMu.Unlock()
	if r.sealed {
		sealRange(h.m.secret, r.id, r.data, off, data)
	} else {
		copy(r.data[off:], data)
	}
	return nil
}

// Transfer moves exclusive ownership to the next task (Fig. 4's
// "out becomes the new in"). If the receiving compute device can address
// the region's current device within the region's requirements, the
// transfer is pure bookkeeping — zero bytes move. Otherwise the runtime
// migrates the region to a device suitable for the receiver and pays the
// copy. The source handle is invalidated either way.
func (h *Handle) Transfer(now time.Duration, to Owner, toCompute string) (*Handle, time.Duration, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	r, err := h.m.lookup(h)
	if err != nil {
		return nil, now, err
	}
	if !r.class.Transferable() {
		return nil, now, fmt.Errorf("%w: %s", ErrNotMovable, r.class)
	}
	if len(r.owners) != 1 {
		return nil, now, fmt.Errorf("%w: %d owners", ErrExclusive, len(r.owners))
	}
	tci, ok := h.m.topo.ComputeIndex(toCompute)
	if !ok {
		return nil, now, fmt.Errorf("region: unknown compute device %q", toCompute)
	}
	// The region already owns its space on the device, so the free-capacity
	// constraint does not apply to staying put.
	req := r.req
	req.Capacity = 0
	e := h.m.topo.Reach(tci, r.mi)
	zeroCopy := e.OK && req.Matches(e.Caps)
	r.gen++ // invalidate the source handle (move semantics)
	nh := &Handle{m: h.m, id: r.id, gen: r.gen, owner: to, compute: toCompute, ci: tci, clock: h.clock, fence: h.fence, rank: h.rank}
	delete(r.owners, h.owner)
	r.owners[to] = toCompute
	if zeroCopy {
		h.m.reg.Handle(ctrTransfersZeroCopy).Add(1)
		return nh, now, nil
	}
	// Migration: re-place for the receiver and copy through the fabric.
	done, err := h.m.migrateLocked(r, toCompute, now, h.clock)
	if err != nil {
		// Roll the ownership move back so the caller still owns the data.
		r.gen++
		delete(r.owners, to)
		r.owners[h.owner] = h.compute
		h.gen = r.gen
		return nil, now, err
	}
	nh.gen = r.gen
	h.m.reg.Handle(ctrTransfersMigrated).Add(1)
	return nh, done, nil
}

// migrateLocked moves a region to a device matching its requirements from
// computeID, paying read+write virtual time. Caller holds m.mu.
func (m *Manager) migrateLocked(r *Region, computeID string, now time.Duration, clk topology.VClock) (time.Duration, error) {
	devID, err := m.placer.Place(r.req, computeID)
	if err != nil {
		return now, fmt.Errorf("%w: migration: %v", ErrNoPlacement, err)
	}
	return m.migrateToLocked(r, computeID, devID, now, clk)
}

// migrateToLocked moves a region to the named device. Caller holds m.mu.
func (m *Manager) migrateToLocked(r *Region, computeID, devID string, now time.Duration, clk topology.VClock) (time.Duration, error) {
	ci, ok := m.topo.ComputeIndex(computeID)
	if !ok {
		return now, fmt.Errorf("region: unknown compute device %q", computeID)
	}
	dmi, ok := m.topo.MemoryIndex(devID)
	if !ok {
		return now, fmt.Errorf("region: placer chose unknown device %q", devID)
	}
	dst := m.topo.MemoryAt(dmi)
	if dst.ID == r.device.ID {
		return now, nil
	}
	// A local migration needs the payload resident; recall it first.
	if err := m.ensureLocalLocked(r); err != nil {
		return now, err
	}
	buddy, err := m.buddyFor(dst)
	if err != nil {
		return now, err
	}
	off, err := buddy.Alloc(r.size)
	if err != nil {
		return now, err
	}
	if err := dst.Reserve(r.blockSize); err != nil {
		buddy.Free(off) //nolint:errcheck // offset came from this buddy
		return now, err
	}
	// Price the copy: read from the old home, write to the new one.
	rd, err := m.accessTime(clk, ci, r.mi, now, r.size, memsim.Read, memsim.Sequential)
	if err != nil {
		rd = now // old home may be unreachable from the new compute; charge only the write
	}
	wr, err := m.accessTime(clk, ci, dmi, rd, r.size, memsim.Write, memsim.Sequential)
	if err != nil {
		return now, err
	}
	// Release the old placement.
	if b, ok := m.buddies[r.device.ID]; ok {
		b.Free(r.offset) //nolint:errcheck // offset tracked by the manager
	}
	r.device.Release(r.blockSize)
	m.dir.DropRegion(uint64(r.id))
	r.device = dst
	r.mi = dmi
	r.offset = off
	// Crossing the on-/off-node boundary changes the at-rest encryption
	// obligation of confidential regions; toggle the sealing of the whole
	// backing (seal and unseal are the same XOR keystream).
	if e := m.topo.Reach(ci, dmi); e.OK {
		newSealed := r.req.Confidential && e.Caps.Remote
		if newSealed != r.sealed {
			r.dataMu.Lock()
			keystreamAt(m.secret, r.id, 0, r.data)
			r.sealed = newSealed
			r.dataMu.Unlock()
		}
	}
	m.reg.Handle(ctrMigrations).Add(1)
	m.reg.Handle(ctrBytesMigrated).Add(r.size)
	return wr, nil
}

// Share grants an additional concurrent owner (shared ownership, §2.2).
// The region class must allow sharing; Private Scratch never does.
//
// Share is the *open* sharing path: nothing bounds who may join later, so
// the region permanently falls back to the full rank barrier on fenced
// accesses. The runtime's output fan-out uses ShareRanked instead, which
// keeps the sharer set closed and the fence narrow.
func (h *Handle) Share(to Owner, toCompute string) (*Handle, error) {
	return h.share(to, toCompute, -1, true)
}

// ShareRanked grants an additional concurrent owner whose deterministic
// schedule rank is known — the runtime's producer→consumers output fan-out,
// where every share is granted at producer completion, before any consumer
// can launch. Because that closes the sharer set before the first fenced
// access, accesses need only fence against the recorded lower-rank sharers
// rather than the whole run. Both the producer's rank (this handle's) and
// the consumer's are recorded.
func (h *Handle) ShareRanked(to Owner, toCompute string, rank int) (*Handle, error) {
	return h.share(to, toCompute, rank, false)
}

func (h *Handle) share(to Owner, toCompute string, rank int, open bool) (*Handle, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	r, err := h.m.lookup(h)
	if err != nil {
		return nil, err
	}
	if !r.class.Shareable() {
		return nil, fmt.Errorf("%w: %s", ErrNotShareable, r.class)
	}
	tci, ok := h.m.topo.ComputeIndex(toCompute)
	if !ok {
		return nil, fmt.Errorf("region: unknown compute device %q", toCompute)
	}
	if !h.m.topo.Reach(tci, r.mi).OK {
		return nil, fmt.Errorf("region: %s cannot address %s", toCompute, r.device.ID)
	}
	if _, dup := r.owners[to]; dup {
		return nil, fmt.Errorf("region: %s already owns region %d", to, r.id)
	}
	r.owners[to] = toCompute
	r.everShared = true
	if open {
		r.openShared = true
	} else {
		r.addSharer(h.rank)
		r.addSharer(rank)
	}
	h.m.reg.Handle(ctrShares).Add(1)
	return &Handle{m: h.m, id: r.id, gen: r.gen, owner: to, compute: toCompute, ci: tci, clock: h.clock, fence: h.fence, rank: rank}, nil
}

// addSharer inserts a rank into the region's ascending sharer set, ignoring
// duplicates and unranked (-1) parties. Caller holds m.mu.
func (r *Region) addSharer(rank int) {
	if rank < 0 {
		return
	}
	i := 0
	for i < len(r.sharers) && r.sharers[i] < rank {
		i++
	}
	if i < len(r.sharers) && r.sharers[i] == rank {
		return
	}
	r.sharers = append(r.sharers, 0)
	copy(r.sharers[i+1:], r.sharers[i:])
	r.sharers[i] = rank
}

// Release drops this owner's claim; the region is freed when the last owner
// releases it — RTS duty (3) of §2.3, replacing garbage collection with
// ownership-tracked lifetimes (Broom [25]).
func (h *Handle) Release() error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	r, err := h.m.lookup(h)
	if err != nil {
		return err
	}
	delete(r.owners, h.owner)
	if len(r.owners) == 0 {
		h.m.free(r)
	}
	return nil
}
