package core

// This file implements the dependency-driven wavefront executor that
// replaced the sequential task loop. A per-run dispatcher tracks each
// task's unmet predecessor count and launches every ready task on a bounded
// worker pool (ExecConfig.Workers goroutines), so independent DAG branches
// execute their *real* work — region transfers, memsim copies, checkpoint
// store I/O, task Fn bodies — concurrently, while *virtual* time stays
// byte-for-byte deterministic.
//
// Determinism rests on four mechanisms:
//
//  1. Causal clock views (topology.TaskView). Each task prices its memory
//     accesses against a private queue view seeded from the element-wise
//     max of its predecessors' final views, so it queues behind exactly the
//     accesses that happened-before it in the DAG — never behind a sibling
//     branch that merely ran earlier in wall-clock time.
//
//  2. A rank-ordered core-claim ledger. The task's rank (its topological
//     index, sched.Ranks) is the global tie-breaker: per compute device,
//     tasks claim virtual cores strictly in rank order, and a claim is only
//     granted when the chosen core's availability cannot be altered by any
//     lower-rank task still in flight on that device (the free core's clock
//     must not exceed the earliest in-flight claim's start). This makes the
//     multiset of core clocks — and therefore every task's start time —
//     identical to sequential execution.
//
//  3. Rank-order fences for globally ordered side effects. Operations whose
//     cost or outcome depends on shared mutable state (the coherence
//     directory on ever-shared regions, first-use creation of job globals)
//     wait until every lower-rank task has completed. Under Workers=1 the
//     fence is always trivially open; under parallel dispatch it only
//     blocks wall-clock time, never virtual time. A fenced task releases
//     its worker slot while it waits so the pool cannot starve.
//
//  4. Min-rank first-error-wins failure. When tasks fail, the failure that
//     sequential execution would have hit first — the lowest rank — is the
//     one surfaced; everything below it runs to completion (and keeps its
//     checkpoints), in-flight work above it is drained, snapshots that
//     ranks above the failure produced out of order are dropped, and the
//     run's core clocks are rewound to the deterministic post-failure state
//     so recovery replays exactly what a sequential run would have.
//
// A wavefront executes inside a wavePool, driven by the batch executor
// (exec.go). An overlapped batch attaches every member (and every recovery
// retry) to one shared pool, so many jobs' ready tasks compete for the same
// bounded worker slots concurrently; a sequential batch attaches one member
// at a time. Determinism generalizes from one job to N because everything
// virtual is per member — seed views, core clocks, claim ledgers, fences,
// failure frontiers — and the only shared state, the pool's wall-clock
// worker slots, never feeds back into virtual time. Cross-member dispatch
// order is itself deterministic: the pool launches the lowest (rank,
// submission sequence) claimed task (sched.BatchBefore).
//
// Peak device memory is likewise virtualized: tasks journal alloc / share /
// release / migrate events stamped with (virtual time, rank, sequence), and
// the high-water mark per device is computed by a deterministic sweep over
// the sorted journal instead of sampling wall-clock allocator state.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/allocator"
	"repro/internal/dataflow"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/topology"
)

// errWavefrontAborted marks a task abandoned at a fence because a
// lower-rank task already failed: its own outcome is unobservable in
// sequential order, so the error is never surfaced.
var errWavefrontAborted = errors.New("core: wavefront aborted after earlier failure")

// taskState is one task's position in the wavefront lifecycle.
type taskState int8

const (
	tsWaiting taskState = iota // predecessors unmet
	tsReady                    // dispatchable, no core claimed yet
	tsClaimed                  // virtual core claimed, awaiting a worker slot
	tsRunning                  // executing on a worker goroutine
	tsDone                     // completed (or restored) successfully
	tsFailed                   // body / verdict / release failure
	tsSkipped                  // never dispatched (beyond the failure rank)
)

// evKind tags a virtual memory-ledger event.
type evKind int8

const (
	evAlloc   evKind = iota // region created: +1 ref, +block bytes on dev
	evShare                 // additional owner granted: +1 ref
	evRelease               // owner released: -1 ref; last ref frees bytes
	evMove                  // region migrated to dev
)

// memEvent is one entry in the run's virtual memory ledger. The (at, rank,
// seq) triple totally orders events deterministically: virtual time first,
// task rank for cross-task ties, per-task sequence within a task.
type memEvent struct {
	at    time.Duration
	rank  int
	seq   int
	id    region.ID
	kind  evKind
	dev   string // evAlloc / evMove: the region's (new) home device
	bytes int64  // evAlloc: allocator block size
}

// wavePool arbitrates one bounded worker pool across one or more
// concurrently executing wavefronts — one member per attempt of a batch
// submission (exec.go). Members share the pool's lock, condition variable,
// and worker slots; everything virtual (core clocks, claim ledgers, seed
// views, fences, failure frontiers) stays per member, which is what keeps
// each job's virtual time independent of its batch mates. The pool always launches the claimed task
// with the lowest (rank, member sequence) pair — sched.BatchBefore — so
// cross-member dispatch ties resolve by submission order, never by
// wall-clock races; the tiebreak shapes only wall-clock interleaving, since
// each member's virtual time is fixed by its own claim ledger.
type wavePool struct {
	mu   sync.Mutex
	cond *sync.Cond
	// slots counts free worker slots. It transiently dips below zero when a
	// fenced task resumes before a launch completes, matching the bounded
	// overshoot the single-job dispatcher always had.
	slots   int
	members []*wavefront // attached and not yet drained, in attach order
	nseq    int          // next submission sequence
}

// newWavePool builds a pool with the given worker bound (minimum 1).
func newWavePool(workers int) *wavePool {
	if workers <= 0 {
		workers = 1
	}
	p := &wavePool{slots: workers}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// attach registers a member, assigning its submission sequence. Caller
// holds p.mu.
func (p *wavePool) attach(w *wavefront) {
	w.pool = p
	w.seq = p.nseq
	p.nseq++
	p.members = append(p.members, w)
}

// takeDrained waits until at least one member has drained, detaches every
// drained member and returns them in attach order. Caller holds p.mu.
func (p *wavePool) takeDrained() []*wavefront {
	for {
		var drained []*wavefront
		keep := p.members[:0]
		for _, w := range p.members {
			if w.drainedLocked() {
				drained = append(drained, w)
			} else {
				keep = append(keep, w)
			}
		}
		clear(p.members[len(keep):])
		p.members = keep
		if len(drained) > 0 {
			return drained
		}
		p.cond.Wait()
	}
}

// launch starts claimed tasks while worker slots are free, always picking
// the lowest (rank, member sequence) claim across all members. Caller
// holds p.mu.
func (p *wavePool) launch() {
	for p.slots > 0 {
		var best *wavefront
		for _, w := range p.members {
			if w.canceled != nil || len(w.dispatch) == 0 {
				continue
			}
			if best == nil || sched.BatchBefore(w.dispatch[0], w.seq, best.dispatch[0], best.seq) {
				best = w
			}
		}
		if best == nil {
			return
		}
		k := best.dispatch[0]
		best.dispatch = best.dispatch[1:]
		best.state[k] = tsRunning
		best.inflight++
		p.slots--
		go best.runTask(k)
	}
}

// wavefront is one run's dispatcher state — one member of a wavePool.
type wavefront struct {
	r    *run
	m    *member // the batch member this attempt belongs to
	pool *wavePool
	seq  int // submission sequence within the pool (dispatch tiebreak)

	// seed is the epoch snapshot every task of this run prices against
	// (merged with predecessor views). Snapshotting once — instead of
	// reading the epoch per task — is what keeps overlapped batch members
	// deterministic: a mate that finishes mid-flight absorbs its views into
	// the shared epoch, and a live read would leak that wall-clock-dependent
	// backlog into this job's virtual time.
	seed *topology.TaskView
	// baseCores snapshots the run's core clocks at wavefront construction,
	// so a failure can rewind them to the deterministic sequential state.
	baseCores map[string][]time.Duration

	order    []*dataflow.Task
	rank     map[string]int
	devOf    []string // rank → assigned compute device
	devOrder []string // deterministic device iteration order
	devs     map[string]*sched.ClaimLedger

	state      []taskState
	unmet      []int                // remaining predecessor count
	ready      []bool               // rank is tsReady (the claim ledger's grant mask)
	readyAt    []time.Duration      // max predecessor finish (virtual)
	views      []*topology.TaskView // final clock views of done tasks
	finish     []time.Duration
	restored   []bool // checkpointed in a prior attempt: restore, don't run
	reported   []bool // produced a task report (ran or restored to completion)
	claimCore  []int
	claimStart []time.Duration
	dispatch   []int // claimed ranks awaiting a worker slot, ascending

	inflight int // goroutines launched and not yet returned
	frontier int // lowest rank not yet done
	done     int
	failRank int // lowest failed rank, -1 if none
	failErr  error
	failTask string
	canceled error
}

// checkPlan verifies that plan places every task of order on a known
// compute device, so scheduling gaps surface as task errors rather than
// mid-flight panics. It returns the first offending task.
func (rt *Runtime) checkPlan(plan *sched.Schedule, order []*dataflow.Task) (string, error) {
	for _, t := range order {
		asg, ok := plan.Assignments[t.ID()]
		if !ok {
			return t.ID(), errors.New("core: task missing from schedule")
		}
		if _, ok := rt.topo.Compute(asg.Compute); !ok {
			return t.ID(), fmt.Errorf("core: scheduled on unknown device %s", asg.Compute)
		}
	}
	return "", nil
}

// newWavefront assembles the dispatcher state of m's current attempt (m.r,
// over a checked plan): per-device claim queues, predecessor counts, a
// clone of m's seed snapshot, the core-clock snapshot failure rewinds
// restore, and the eager rank-ordered injection / restore pre-pass. The
// returned wavefront is not yet attached to a pool.
func newWavefront(m *member) *wavefront {
	r, order := m.r, m.order
	n := len(order)
	w := &wavefront{
		r: r, m: m, seed: topology.GetTaskView(m.seed),
		order: order, rank: m.ranks,
		devOf: make([]string, n), devs: make(map[string]*sched.ClaimLedger),
		state: make([]taskState, n), unmet: make([]int, n), ready: make([]bool, n),
		readyAt: make([]time.Duration, n), views: make([]*topology.TaskView, n),
		finish: make([]time.Duration, n), restored: make([]bool, n),
		reported:  make([]bool, n),
		claimCore: make([]int, n), claimStart: make([]time.Duration, n),
		baseCores: make(map[string][]time.Duration, len(r.cores)),
		failRank:  -1,
	}
	for dev, cs := range r.cores {
		w.baseCores[dev] = append([]time.Duration(nil), cs...)
	}
	r.ranks = m.ranks
	for k, t := range order {
		dev := r.schedule.Assignments[t.ID()].Compute
		w.devOf[k] = dev
		ds := w.devs[dev]
		if ds == nil {
			ds = sched.NewClaimLedger()
			w.devs[dev] = ds
			w.devOrder = append(w.devOrder, dev)
		}
		ds.Enqueue(k) // ascending: k iterates in rank order
		w.unmet[k] = len(t.Preds())
		if w.unmet[k] == 0 {
			w.state[k] = tsReady
			w.ready[k] = true
		}
	}
	sort.Strings(w.devOrder)

	// Injection verdicts and restore decisions are taken eagerly in strict
	// rank order, exactly as the sequential loop would consume them: tasks
	// checkpointed by a prior attempt never step the injector, and stepping
	// stops at the first failure (ranks above it never consume injector
	// state). Injector passes are mutation-free, so pre-consuming them is
	// observationally identical to consuming them at dispatch time.
	for k, t := range order {
		if r.ck != nil {
			if _, ok := r.ck.lookup(r.ckID, t.ID()); ok {
				w.restored[k] = true
				continue
			}
		}
		if r.rt.inject != nil {
			if err := r.rt.inject.Step(r.ns, t.ID()); err != nil {
				w.failRank, w.failErr, w.failTask = k, err, t.ID()
				w.state[k] = tsFailed
				w.ready[k] = false
				break
			}
		}
	}
	return w
}

// finalize settles a drained wavefront: releases the run's regions and, on
// success, folds its clock views into the epoch and finalizes the report's
// peak-memory and makespan figures. On failure it additionally drops
// snapshots that ranks above the failure produced out of sequential order,
// and rewinds the run's core clocks to the deterministic post-failure
// state: the construction-time snapshot replayed with exactly the
// completions a sequential run would have made (reported ranks at or below
// the failure). Without the rewind, in-flight tasks above the failure rank
// — which only exist at Workers>1 — would leave their finish times on the
// clocks and make every retry's virtual time depend on the pool size.
//
// Must be called exactly once, after drainedLocked() was observed under the
// pool lock; at that point no task goroutine of this member is live, so its
// state is safe to read unlocked.
func (w *wavefront) finalize() (failedTask string, err error) {
	r := w.r
	if w.canceled != nil {
		r.cleanup()
		w.recycleViews()
		return "", w.canceled
	}
	if w.failRank >= 0 {
		if r.ck != nil {
			for k := w.failRank + 1; k < len(w.order); k++ {
				if w.state[k] == tsDone && !w.restored[k] {
					r.ck.drop(r.ckID, w.order[k].ID())
				}
			}
		}
		for dev, base := range w.baseCores {
			copy(r.cores[dev], base)
		}
		for k := 0; k <= w.failRank && k < len(w.order); k++ {
			if w.reported[k] {
				r.cores[w.devOf[k]][w.claimCore[k]] = w.finish[k]
			}
		}
		r.cleanup()
		w.recycleViews()
		return w.failTask, w.failErr
	}

	// Success: fold every task's clock view back into the epoch so batch
	// mates attached after this job queue behind its device backlog
	// (sequential batches; overlapped members snapshot the epoch before any
	// mate finishes, so for them this is inert bookkeeping).
	r.epoch.AbsorbViews(w.views...)
	r.cleanup()
	w.recycleViews()
	r.report.PeakDeviceBytes = r.computePeak()
	for k := range w.restored {
		if w.restored[k] {
			r.report.SkippedTasks++
		}
	}
	for _, tr := range r.report.Tasks {
		if tr.Finish > r.report.Makespan {
			r.report.Makespan = tr.Finish
		}
	}
	return "", nil
}

// recycleViews returns the run's task views and seed snapshot to the pool.
// Safe only after cleanup: every region the run held has been released, so
// stale handles fail their manager lookup before their clock view — possibly
// one of these, now recycled — would be consulted.
func (w *wavefront) recycleViews() {
	for k, v := range w.views {
		topology.PutTaskView(v) // nil-safe: failed/skipped ranks have no view
		w.views[k] = nil
	}
	topology.PutTaskView(w.seed)
	w.seed = nil
}

// drainedLocked reports whether the wavefront has nothing left to do.
// Caller holds the pool lock.
func (w *wavefront) drainedLocked() bool {
	if w.inflight > 0 {
		return false
	}
	if w.canceled != nil {
		return true
	}
	if w.failRank >= 0 {
		return w.frontier >= w.failRank
	}
	return w.done == len(w.order)
}

// advance grants core claims in rank order per device, probes cancellation,
// and revokes claims orphaned by a failure. It never launches; the pool
// does, so cross-member dispatch order stays deterministic. Caller holds
// the pool lock.
func (w *wavefront) advance() {
	if w.m.cancel != nil && w.canceled == nil {
		if err := w.m.cancel(); err != nil {
			w.canceled = err
			w.pool.cond.Broadcast()
		}
	}
	if w.canceled != nil {
		return
	}
	limit := len(w.order)
	if w.failRank >= 0 && w.failRank < limit {
		limit = w.failRank // nothing at or above the failure rank dispatches
	}
	for {
		progress := false
		for _, dev := range w.devOrder {
			ds := w.devs[dev]
			// The ledger grants the whole run of consecutive dispatchable
			// head-of-queue ranks in one pass (sched.GrantBatch), so a
			// completion that unblocks several ranks costs one critical
			// section instead of one wakeup each.
			for _, g := range ds.GrantBatch(w.r.cores[dev], w.r.base, limit, w.ready, w.readyAt) {
				w.claimCore[g.Rank], w.claimStart[g.Rank] = g.Core, g.Start
				w.state[g.Rank] = tsClaimed
				w.ready[g.Rank] = false
				w.dispatch = insertRank(w.dispatch, g.Rank)
				progress = true
			}
		}
		// A failure revokes claims at or above the failure rank that have
		// not launched yet.
		if w.failRank >= 0 && len(w.dispatch) > 0 {
			keep := w.dispatch[:0]
			for _, k := range w.dispatch {
				if k < w.failRank {
					keep = append(keep, k)
					continue
				}
				w.devs[w.devOf[k]].Release(w.claimCore[k])
				w.state[k] = tsSkipped
			}
			w.dispatch = keep
		}
		if !progress {
			return
		}
	}
}

// insertRank inserts k into an ascending rank slice.
func insertRank(s []int, k int) []int {
	i := sort.SearchInts(s, k)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = k
	return s
}

// seedView builds the task's causal clock view: the wavefront's seed
// snapshot merged with every predecessor's final view. Predecessor views
// are published under the pool lock before the successor launches, so
// reading them here without the lock is race-free.
func (w *wavefront) seedView(k int) *topology.TaskView {
	v := topology.GetTaskView(w.seed)
	for _, p := range w.order[k].Preds() {
		v.Merge(w.views[w.rank[p.ID()]])
	}
	return v
}

// runTask executes one claimed task on a worker goroutine and folds its
// outcome back into the dispatcher.
func (w *wavefront) runTask(k int) {
	t := w.order[k]
	view := w.seedView(k)
	fin, rep, err := w.r.execTaskAt(w, k, t, view, w.claimStart[k])

	p := w.pool
	p.mu.Lock()
	w.inflight--
	p.slots++
	dev := w.devOf[k]
	w.devs[dev].Release(w.claimCore[k])
	if rep != nil {
		// The task ran to completion (possibly with a release error):
		// its core clock and report are recorded either way, exactly like
		// the sequential engine.
		w.reported[k] = true
		w.r.cores[dev][w.claimCore[k]] = fin
		w.finish[k] = fin
		w.r.report.Tasks[t.ID()] = rep
	}
	if err != nil {
		w.state[k] = tsFailed
		if !errors.Is(err, errWavefrontAborted) && (w.failRank < 0 || k < w.failRank) {
			w.failRank, w.failErr, w.failTask = k, err, t.ID()
		}
		// The failed task's view was never published to w.views, so nothing
		// merges from it or prices through it again — recycle it now.
		topology.PutTaskView(view)
	} else {
		w.state[k] = tsDone
		w.done++
		w.views[k] = view
		for _, s := range t.Succs() {
			sk := w.rank[s.ID()]
			w.unmet[sk]--
			if fin > w.readyAt[sk] {
				w.readyAt[sk] = fin
			}
			if w.unmet[sk] == 0 && w.state[sk] == tsWaiting {
				w.state[sk] = tsReady
				w.ready[sk] = true
			}
		}
		for w.frontier < len(w.order) && w.state[w.frontier] == tsDone {
			w.frontier++
		}
	}
	w.advance()
	p.launch()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// fence blocks the calling task (rank k) until the ordering its access
// needs is established — the barrier installed on coherence-priced accesses
// and global first-use. deps == nil demands the full rank barrier (every
// rank below k completed): the conservative form used for open sharing and
// first-use creation, where the set of ordering-relevant parties is
// unknowable. A non-nil deps lists the region's happens-before sharer set
// (region.Handle.fenceDeps); the fence then waits only for those ranks, so
// a region whose sharing phase has passed stops serializing the whole run.
// The barrier is strictly per member: batch mates sharing the pool never
// fence against each other. The waiting task releases its worker slot so
// the pool cannot starve; it aborts if a rank below it fails (its own
// outcome would be unobservable sequentially — this also covers deps that
// failed or were revoked and will never retire) or the run is canceled.
func (w *wavefront) fence(k int, deps []int) error {
	p := w.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if w.fenceOpenLocked(k, deps) {
		return nil
	}
	p.slots++
	w.advance()
	p.launch()
	for !w.fenceOpenLocked(k, deps) {
		if w.failRank >= 0 && w.failRank < k {
			p.slots--
			return errWavefrontAborted
		}
		if w.canceled != nil {
			p.slots--
			return w.canceled
		}
		p.cond.Wait()
	}
	p.slots--
	return nil
}

// fenceOpenLocked reports whether rank k's fence requirement already holds:
// every rank below k retired (the frontier passed k), or — when deps lists
// the access's happens-before set — every listed rank below k completed.
// Caller holds the pool lock.
func (w *wavefront) fenceOpenLocked(k int, deps []int) bool {
	if w.frontier >= k {
		return true
	}
	if deps == nil {
		return false
	}
	for _, d := range deps {
		if d < k && w.state[d] != tsDone {
			return false
		}
	}
	return true
}

// computePeak sweeps the run's virtual memory ledger in deterministic
// (time, rank, seq) order and returns the per-device high-water mark.
// Regions never released (job globals, retained final outputs) stay live
// through the end of the sweep, matching their actual lifetime.
func (r *run) computePeak() map[string]int64 {
	r.smu.Lock()
	events := r.events
	r.events = nil
	r.smu.Unlock()
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.seq < b.seq
	})
	type liveRegion struct {
		dev   string
		bytes int64
		refs  int
	}
	live := make(map[region.ID]*liveRegion)
	cur := make(map[string]int64)
	peak := make(map[string]int64)
	bump := func(dev string) {
		if cur[dev] > peak[dev] {
			peak[dev] = cur[dev]
		}
	}
	for _, e := range events {
		switch e.kind {
		case evAlloc:
			live[e.id] = &liveRegion{dev: e.dev, bytes: e.bytes, refs: 1}
			cur[e.dev] += e.bytes
			bump(e.dev)
		case evShare:
			if lr := live[e.id]; lr != nil {
				lr.refs++
			}
		case evRelease:
			if lr := live[e.id]; lr != nil {
				lr.refs--
				if lr.refs == 0 {
					cur[lr.dev] -= lr.bytes
					delete(live, e.id)
				}
			}
		case evMove:
			if lr := live[e.id]; lr != nil && lr.dev != e.dev {
				cur[lr.dev] -= lr.bytes
				lr.dev = e.dev
				cur[e.dev] += lr.bytes
				bump(e.dev)
			}
		}
	}
	return peak
}

// flushEvents publishes a completed task's ledger entries. Failed tasks
// never flush: their run's report is discarded anyway, and partial journals
// would imbalance the sweep.
func (r *run) flushEvents(ctx *taskCtx) {
	if len(ctx.events) == 0 {
		return
	}
	r.smu.Lock()
	r.events = append(r.events, ctx.events...)
	r.smu.Unlock()
}

// note journals one ledger event at the context's current virtual time.
func (c *taskCtx) note(kind evKind, id region.ID, dev string, bytes int64) {
	c.events = append(c.events, memEvent{
		at: c.now, rank: c.rank, seq: c.evseq,
		id: id, kind: kind, dev: dev, bytes: bytes,
	})
	c.evseq++
}

func (c *taskCtx) noteAlloc(h *region.Handle, size int64) {
	if dev, err := h.DeviceID(); err == nil {
		c.note(evAlloc, h.ID(), dev, allocator.BlockSize(size))
	}
}

func (c *taskCtx) noteShare(h *region.Handle)   { c.note(evShare, h.ID(), "", 0) }
func (c *taskCtx) noteRelease(h *region.Handle) { c.note(evRelease, h.ID(), "", 0) }

func (c *taskCtx) noteMove(h *region.Handle) {
	if dev, err := h.DeviceID(); err == nil {
		c.note(evMove, h.ID(), dev, 0)
	}
}
