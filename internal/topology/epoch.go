package topology

import (
	"sync"
	"time"

	"repro/internal/memsim"
)

// Epoch is one virtual-time epoch: a private view of every memory device's
// service queue. The hardware graph itself (devices, links, routes, capacity
// accounting) stays shared; only *queue time* — the state that defines a
// virtual clock — lives here. Concurrent epochs therefore never interleave
// their backlogs: two jobs running in different epochs each see the device
// idle at their own t=0, exactly as if they ran on freshly drained hardware,
// while jobs sharing one epoch contend on the same FIFO queues (the
// multi-job serving case where contention is the point).
//
// Epoch replaces the old pattern of mutating the device-global queue and
// calling Topology.ResetQueues between runs, which was only safe for
// sequential submission. ResetQueues remains for the measurement-phase
// callers that still use the global queue.
//
// An Epoch is safe for concurrent use by multiple goroutines.
type Epoch struct {
	topo *Topology

	mu   sync.Mutex
	busy queues
}

// VClock is a virtual-time view of the memory device queues: the contract
// shared by Epoch (locked, FIFO across all callers) and TaskView (unlocked,
// private to one task in a wavefront). Placers and the region manager price
// accesses against whichever view the caller hands them.
type VClock interface {
	// Topology returns the shared hardware graph this clock runs on.
	Topology() *Topology
	// BusyAt returns the view-local queue drain time of the memory device
	// with dense index mi.
	BusyAt(mi int) time.Duration
	// AccessAt is Topology.AccessAt against this view's queue state.
	AccessAt(ci, mi int, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) (time.Duration, error)
}

// queues is a view's queue drain times, indexed by memory device. It may be
// shorter than the device list (a fresh view, or devices added later):
// missing entries read as drained.
type queues []time.Duration

func (q queues) at(mi int) time.Duration {
	if mi < len(q) {
		return q[mi]
	}
	return 0
}

// grow extends q to n entries, reusing its capacity — a pooled view
// reaches its full length once and keeps it.
func (q *queues) grow(n int) {
	if len(*q) < n {
		*q = append(*q, make(queues, n-len(*q))...)
	}
}

// maxIn folds o in as an element-wise max.
func (q *queues) maxIn(o queues) {
	q.grow(len(o))
	for mi, t := range o {
		if t > (*q)[mi] {
			(*q)[mi] = t
		}
	}
}

// accessQueued prices an access from compute ci to memory mi against the
// queue state q and advances q — the pricing shared by Epoch and TaskView.
func (t *Topology) accessQueued(q *queues, ci, mi int, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) (time.Duration, error) {
	e := t.Reach(ci, mi)
	if !e.OK {
		return 0, t.noPath(ci, mi)
	}
	q.grow(len(t.memories))
	done, busy := e.Mem.AccessQueued((*q)[mi], now+e.Path.Latency, size, kind, pat)
	(*q)[mi] = busy
	done += pathStretch(e.Path, e.Mem, size)
	return done + e.Path.Latency, nil
}

// NewEpoch starts a fresh virtual-time epoch on this topology: every device
// queue is seen as drained at t=0.
func (t *Topology) NewEpoch() *Epoch {
	return &Epoch{topo: t}
}

// Topology returns the shared hardware graph this epoch runs on.
func (e *Epoch) Topology() *Topology { return e.topo }

// BusyUntil returns the epoch-local queue drain time of a memory device —
// the contention signal epoch-aware placers steer by.
func (e *Epoch) BusyUntil(memID string) time.Duration {
	mi, ok := e.topo.MemoryIndex(memID)
	if !ok {
		return 0
	}
	return e.BusyAt(mi)
}

// BusyAt is BusyUntil by dense memory index.
func (e *Epoch) BusyAt(mi int) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.busy.at(mi)
}

// AccessAt is Topology.AccessAt against this epoch's queue state: the
// virtual completion time of a memory access of size bytes issued by
// compute ci against memory mi at virtual time now. Path latency both ways
// is added to the epoch-local queued service time, and transfer time is
// stretched if the path is narrower than the device.
func (e *Epoch) AccessAt(ci, mi int, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) (time.Duration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.topo.accessQueued(&e.busy, ci, mi, now, size, kind, pat)
}

// View snapshots the epoch's current queue state into a fresh TaskView.
// Wavefront source tasks seed from this; everything downstream seeds from
// merged predecessor views.
func (e *Epoch) View() *TaskView {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &TaskView{topo: e.topo, busy: append(queues(nil), e.busy...)}
}

// Absorb folds a finished task's queue state back into the epoch as an
// element-wise max: after a run completes, the epoch's drain times reflect
// the deepest backlog any of the run's tasks produced, so later jobs that
// share the epoch queue behind the whole run.
func (e *Epoch) Absorb(v *TaskView) {
	if v == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.busy.maxIn(v.busy)
}

// AbsorbViews folds several task views into the epoch under one lock
// acquisition — the bulk form of Absorb a drained wavefront uses to publish
// its whole run at once. Nil entries (tasks that never completed) are
// skipped.
func (e *Epoch) AbsorbViews(vs ...*TaskView) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, v := range vs {
		if v != nil {
			e.busy.maxIn(v.busy)
		}
	}
}

// TaskView is one task's causal view of the device queues inside a
// wavefront run. It seeds from the element-wise max of the task's
// predecessors' final views, so a task queues behind exactly the accesses
// that happened-before it in the DAG — never behind a sibling branch that
// merely ran earlier in wall-clock time. That independence from dispatch
// order is what keeps parallel execution byte-for-byte deterministic.
//
// A TaskView is NOT safe for concurrent use: it belongs to one task
// goroutine. Cross-task handoff (predecessor final view → successor seed)
// is synchronized by the wavefront dispatcher.
type TaskView struct {
	topo *Topology
	busy queues
}

// viewPool recycles TaskViews (and, most importantly, their queue slices):
// a wavefront allocates one view per task, and on short serving batches the
// per-task churn was a measurable slice of the determinism tax. Views
// enter the pool through PutTaskView once their run has absorbed them and
// released every region that could price through them.
var viewPool = sync.Pool{
	New: func() any { return new(TaskView) },
}

// GetTaskView returns a pooled view initialized as a copy of src (same
// topology, same queue state) — the pooled equivalent of src.Clone(). The
// caller owns the view until it hands it to PutTaskView.
func GetTaskView(src *TaskView) *TaskView {
	v := viewPool.Get().(*TaskView)
	v.topo = src.topo
	v.busy = append(v.busy[:0], src.busy...)
	return v
}

// PutTaskView recycles a view. The caller must guarantee nothing can price
// an access through it anymore — in the wavefront executor that holds after
// finalize: the run's regions are released first, and every handle lookup
// fails before its clock view would be consulted. Nil is a no-op, so callers
// can put back sparse view tables without filtering.
func PutTaskView(v *TaskView) {
	if v == nil {
		return
	}
	viewPool.Put(v)
}

// NewTaskView starts an empty view: every queue drained at t=0.
func (t *Topology) NewTaskView() *TaskView {
	return &TaskView{topo: t}
}

// Topology returns the shared hardware graph this view runs on.
func (v *TaskView) Topology() *Topology { return v.topo }

// BusyAt returns the view-local queue drain time of the memory device
// with dense index mi.
func (v *TaskView) BusyAt(mi int) time.Duration { return v.busy.at(mi) }

// Merge folds another view in as an element-wise max. Seeding a task's view
// is Merge over every predecessor's final view.
func (v *TaskView) Merge(o *TaskView) {
	if o != nil {
		v.busy.maxIn(o.busy)
	}
}

// Clone returns an independent copy of the view.
func (v *TaskView) Clone() *TaskView {
	return &TaskView{topo: v.topo, busy: append(queues(nil), v.busy...)}
}

// AccessAt is Topology.AccessAt against this view's queue state.
func (v *TaskView) AccessAt(ci, mi int, now time.Duration, size int64, kind memsim.AccessKind, pat memsim.Pattern) (time.Duration, error) {
	return v.topo.accessQueued(&v.busy, ci, mi, now, size, kind, pat)
}

// pathStretch is the extra transfer time when the route is the bottleneck:
// the gap between moving size bytes at path bandwidth vs device bandwidth.
func pathStretch(path PathInfo, mem *memsim.Device, size int64) time.Duration {
	if size <= 0 || path.Bandwidth >= mem.Bandwidth {
		return 0
	}
	extra := time.Duration(float64(size)/path.Bandwidth*float64(time.Second)) -
		time.Duration(float64(size)/mem.Bandwidth*float64(time.Second))
	if extra < 0 {
		return 0
	}
	return extra
}
