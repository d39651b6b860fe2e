package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/region"
	"repro/internal/telemetry"
)

// This file implements runtime-level checkpoint/restart — the paper's
// challenge 8(3): "failures may lead to data loss and force applications to
// stop and restart. Therefore, our programming model and its runtime system
// must implement suitable mechanisms that guarantee fault tolerance."
//
// The mechanism follows the dataflow structure: a task's externally visible
// effect is its output region, so after each task completes the runtime
// snapshots that output into a fault-tolerant far-memory store
// (internal/fault — replication or Carbink-style erasure coding, the
// operator's choice). When a task fails, RunWithRecovery re-runs the job:
// tasks with a snapshot are *restored* — their output is fetched from the
// store into a fresh region and handed to successors — instead of
// re-executed. core.Server layers the same mechanism under concurrent
// serving (ServerConfig.Recovery): retries replay inside the worker's
// shared epoch.
//
// Scope: the snapshot covers dataflow state (task outputs). Side effects on
// job-global regions are transient by definition (Global Scratch) or
// synchronization state (Global State) that tasks must be able to rebuild —
// the same contract Spark-style lineage recovery imposes.

// Checkpointer stores per-(submission, task) output snapshots in a
// fault.Store. It is safe for concurrent use by many runs: entries are
// keyed by a unique per-submission run ID (not the job name), so identical
// jobs submitted concurrently never cross-restore or cross-Forget each
// other's snapshots, and store I/O happens outside the entry lock so
// workers never serialize on far-memory transfers.
type Checkpointer struct {
	store fault.Store
	seq   atomic.Uint64

	mu      sync.Mutex
	entries map[string]ckEntry // "runID/task" → entry
}

type ckEntry struct {
	obj  fault.ObjectID
	size int64
	// hasOutput distinguishes a task that produced an output region
	// (possibly with an empty payload — successors still expect delivery)
	// from a sink that completed without one.
	hasOutput bool
	// recorded marks the snapshot of a task that fully completed, making
	// it warm-replayable: restoreCost below is valid, and partial replay
	// may defer the real store fetch until a re-executed consumer needs
	// the payload. A snapshot without a record (the task failed between
	// checkpoint and completion, or the entry was seeded outside the
	// engine) replays cold — the store round trip is performed, and its
	// observed price charged, eagerly in both modes.
	recorded bool
	// restoreCost is the virtual price charged for replaying a recorded
	// snapshot — the snapshot Put duration, used as the deterministic
	// proxy for a restore Get in both replay modes: the store's Get cost
	// can depend on mutable cluster state (degraded erasure reads), and
	// partial replay must know the price without performing the Get.
	restoreCost time.Duration
}

// NewCheckpointer wraps a fault-tolerant store.
func NewCheckpointer(store fault.Store) *Checkpointer {
	return &Checkpointer{store: store, entries: make(map[string]ckEntry)}
}

// NewRunID mints a unique snapshot namespace for one submission of job.
// All attempts of that submission share the ID; concurrent submissions of
// same-named jobs get distinct IDs. A sharded router mints one per
// submission and threads it through SubmitOptions.ResumeID so every shard
// attempt of that submission — the original and any failover
// re-submissions — shares the namespace. The caller owns its lifecycle:
// call Forget once the submission is settled.
func (c *Checkpointer) NewRunID(job string) string {
	return fmt.Sprintf("%s@%d", job, c.seq.Add(1))
}

func ckKey(runID, task string) string { return runID + "/" + task }

// lookup returns the entry for a task, if any.
func (c *Checkpointer) lookup(runID, task string) (ckEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[ckKey(runID, task)]
	return e, ok
}

// snapshot persists a completed task's output bytes. hasOutput marks
// whether the task produced an output region at all; data may be empty
// either way. Returns the virtual time the store took.
//
// The store round-trips run outside the entry lock: N workers
// checkpointing concurrently contend on the store's own synchronization
// only, never on each other's bookkeeping.
func (c *Checkpointer) snapshot(runID, task string, data []byte, hasOutput bool) (time.Duration, error) {
	key := ckKey(runID, task)
	e := ckEntry{hasOutput: hasOutput}
	var d time.Duration
	if hasOutput && len(data) > 0 {
		obj, dd, err := c.store.Put(data)
		if err != nil {
			return dd, fmt.Errorf("core: checkpoint %s: %w", key, err)
		}
		e.obj, e.size, d = obj, int64(len(data)), dd
	}
	c.mu.Lock()
	old, had := c.entries[key]
	c.entries[key] = e
	c.mu.Unlock()
	if had && old.size > 0 {
		// Re-checkpoint (the run re-ran this task from scratch): drop the
		// stale object, again outside the lock. A concurrent Forget of the
		// same run may have deleted it already; the store's not-found reply
		// is tolerated (best-effort GC).
		c.store.Delete(old.obj) //nolint:errcheck // best-effort GC
	}
	return d, nil
}

// record marks an existing snapshot entry warm-replayable, attaching its
// deterministic restore price. It is called once per task, at the very end
// of the success path, so a task that failed after its snapshot keeps a
// record-less entry and replays through the cold path. A re-snapshot
// (snapshot called again for the same task) resets the entry cold until
// the re-run completes and records again.
func (c *Checkpointer) record(runID, task string, restoreCost time.Duration) {
	key := ckKey(runID, task)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		e.recorded, e.restoreCost = true, restoreCost
		c.entries[key] = e
	}
	c.mu.Unlock()
}

// restore fetches a snapshot's bytes. hasOutput reports whether the task
// had produced an output region (so an empty payload still must be
// delivered to successors).
func (c *Checkpointer) restore(runID, task string) (data []byte, hasOutput bool, d time.Duration, err error) {
	c.mu.Lock()
	e, ok := c.entries[ckKey(runID, task)]
	c.mu.Unlock()
	if !ok {
		return nil, false, 0, fmt.Errorf("core: no checkpoint for %s/%s", runID, task)
	}
	if e.size == 0 {
		return nil, e.hasOutput, 0, nil
	}
	data, d, err = c.store.Get(e.obj)
	if err != nil {
		return nil, true, d, fmt.Errorf("core: restoring %s/%s: %w", runID, task, err)
	}
	return data, true, d, nil
}

// Forget drops all snapshots of one submission (after it terminally
// succeeded or failed). Entries leave the map under the lock; the store
// deletes run outside it, so a slow store never blocks other runs'
// snapshot/restore traffic.
func (c *Checkpointer) Forget(runID string) {
	prefix := runID + "/"
	var objs []fault.ObjectID
	c.mu.Lock()
	for k, e := range c.entries {
		if strings.HasPrefix(k, prefix) {
			if e.size > 0 {
				objs = append(objs, e.obj)
			}
			delete(c.entries, k)
		}
	}
	c.mu.Unlock()
	for _, obj := range objs {
		c.store.Delete(obj) //nolint:errcheck // best-effort GC
	}
}

// drop removes a single task's snapshot. The wavefront executor uses it
// after a failure to trim snapshots that ranks *above* the failing task
// produced out of sequential order — a sequential run would never have
// executed them, so recovery must not replay them.
func (c *Checkpointer) drop(runID, task string) {
	key := ckKey(runID, task)
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		delete(c.entries, key)
	}
	c.mu.Unlock()
	if ok && e.size > 0 {
		c.store.Delete(e.obj) //nolint:errcheck // best-effort GC
	}
}

// Snapshots returns the number of stored entries (tests, reports).
func (c *Checkpointer) Snapshots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// defaultFaultStore builds the serving default: a 2-way replicated
// far-memory store over a private 3-node fabric.
func defaultFaultStore() (fault.Store, error) {
	f := cluster.NewFabric(cluster.Config{})
	for i := 0; i < 3; i++ {
		if err := f.AddNode(fmt.Sprintf("ckmem%d", i), 1<<28); err != nil {
			return nil, err
		}
	}
	return fault.NewReplicatedStore(f, 2)
}

// RunWithRecovery executes the job, checkpointing each task's output into
// ck's store; on task failure it retries (up to maxAttempts total runs),
// replaying completed tasks from their checkpoint records instead of
// re-executing them. Every retry eagerly re-materializes each replayed
// task's output from the store (whole-job replay: the full restore I/O is
// paid up front). A retry resumes on the failed attempt's rewound core
// clocks, exactly like a served retry, so the report equals the Server's
// for the same kills. maxAttempts <= 0 means 2. Returns the final report,
// the number of attempts used, and the last attempt's error if all
// failed. Snapshots are forgotten on success and after the final failed
// attempt (nothing will ever replay them).
func (rt *Runtime) RunWithRecovery(job *dataflow.Job, ck *Checkpointer, maxAttempts int) (*Report, int, error) {
	return rt.recoverOne(job, ck, maxAttempts, false)
}

// RunWithPartialReplay is RunWithRecovery with lazy restore I/O: on a retry,
// completed tasks are still marked done from their records, but a task's
// output is fetched from the store only when a replayed successor actually
// consumes it. Interior outputs of the skipped prefix — those no replayed
// task ever reads — are never fetched at all, which is where wide or deep
// DAGs save retry latency. The final report is byte-identical to
// RunWithRecovery's at any Workers setting: virtual time charges the same
// recorded restore price per consumed input in both modes, and only the
// real (wall-clock) store traffic differs.
func (rt *Runtime) RunWithPartialReplay(job *dataflow.Job, ck *Checkpointer, maxAttempts int) (*Report, int, error) {
	return rt.recoverOne(job, ck, maxAttempts, true)
}

// recoverOne runs job as a batch of one under a recovery policy with no
// backoff: eager (RunWithRecovery) or lazy (RunWithPartialReplay) restore.
func (rt *Runtime) recoverOne(job *dataflow.Job, ck *Checkpointer, maxAttempts int, partial bool) (*Report, int, error) {
	if ck == nil {
		return nil, 0, fmt.Errorf("core: nil checkpointer")
	}
	if maxAttempts <= 0 {
		maxAttempts = 2
	}
	m, err := rt.runOne(job, &RecoveryPolicy{Checkpointer: ck, MaxAttempts: maxAttempts, PartialReplay: partial})
	if m == nil {
		return nil, 0, err
	}
	if err != nil {
		return nil, m.attempt, fmt.Errorf("core: job %s failed after %d attempts: %w", job.Name(), m.attempt, err)
	}
	m.r.report.Attempts = m.attempt
	return m.r.report, m.attempt, nil
}

// checkpointTask snapshots a completed task's output (if any) into the
// checkpointer's store, charging the store's virtual time to the task. The
// Put price is stashed on the context: when the task fully completes it
// becomes the entry's deterministic replay price (record).
func (r *run) checkpointTask(ctx *taskCtx, t *dataflow.Task) error {
	var data []byte
	hasOutput := ctx.output != nil
	if hasOutput {
		size, err := ctx.output.Size()
		if err != nil {
			return err
		}
		data = make([]byte, size)
		f := ctx.output.ReadAsync(ctx.now, 0, data)
		now, err := f.Await(ctx.now)
		if err != nil {
			return err
		}
		ctx.now = now
	}
	d, err := r.ck.snapshot(r.ckID, t.ID(), data, hasOutput)
	if err != nil {
		return err
	}
	ctx.now += d
	ctx.ckRestoreCost = d
	r.rt.tel.Handle(ctrCheckpoints).Add(1)
	return nil
}

// lazyRestore tracks one replayed producer's re-materialized output region
// under partial replay: the region holds a placeholder payload until a
// re-executed consumer receives it as input and hydrates the real bytes.
// The mutex serializes concurrent consumers of a shared output — only the
// wall-clock fetch is serialized, never virtual time.
type lazyRestore struct {
	mu   sync.Mutex
	done bool
}

// hydrate fetches the replayed producer's payload from the checkpoint store
// (once) and writes it raw into the re-materialized region. The restore's
// virtual price was already charged when the producer replayed; this is
// pure real I/O, counted in the fault layer's restored_bytes gauge — the
// quantity partial replay exists to shrink.
func (lr *lazyRestore) hydrate(r *run, task string, h *region.Handle) error {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if lr.done {
		return nil
	}
	data, _, _, err := r.ck.restore(r.ckID, task)
	if err != nil {
		return err
	}
	if len(data) > 0 {
		if err := h.Hydrate(0, data); err != nil {
			return err
		}
	}
	lr.done = true
	r.rt.tel.Handle(ctrLazyHydrations).Add(1)
	r.rt.tel.Handle(ctrRestoredBytes).Add(int64(len(data)))
	return nil
}

// restoreTaskAt replays a checkpointed task on a wavefront worker: inputs
// are discarded (their producer's effect is already captured downstream),
// the stored output is re-materialized into a fresh region, and delivery
// proceeds as usual — even for an empty payload, so successors that
// legitimately expect the region are never starved. The dispatcher folds
// the returned finish time and report into the run, like any executed task.
//
// Replay charges one store round trip of virtual time. For a recorded
// (warm) snapshot the price is the deterministic recorded Put cost, and
// partial replay elides the real store fetch entirely: a placeholder
// payload of the snapshot's exact size backs the region until a
// re-executed consumer hydrates it (run.lazy) — so outputs no re-executed
// task ever reads are never fetched at all. The virtual timeline, and with
// it the final report, is byte-identical between the modes; only the real
// store traffic differs. A record-less (cold) snapshot — the task failed
// after its checkpoint, or the entry was seeded outside the engine —
// fetches eagerly in both modes and charges the observed Get price.
func (r *run) restoreTaskAt(ctx *taskCtx, t *dataflow.Task, start time.Duration) (time.Duration, *TaskReport, error) {
	for _, p := range t.Preds() {
		r.smu.Lock()
		h := r.pending[t.ID()][p.ID()]
		delete(r.pending[t.ID()], p.ID())
		r.smu.Unlock()
		if h != nil && h.Release() == nil { // discarding a superseded input
			ctx.noteRelease(h)
		}
	}
	// Adopt inputs list as empty: the restored task does not run.
	e, ok := r.ck.lookup(r.ckID, t.ID())
	if !ok {
		return 0, nil, fmt.Errorf("core: no checkpoint for %s/%s", r.ckID, t.ID())
	}
	lazy := r.partial && e.recorded
	var data []byte
	hasOutput := e.hasOutput
	if lazy {
		ctx.now += e.restoreCost
	} else {
		var d time.Duration
		var err error
		data, hasOutput, d, err = r.ck.restore(r.ckID, t.ID())
		if err != nil {
			return 0, nil, err
		}
		if e.recorded {
			// Charge the deterministic price partial replay would charge,
			// not the observed Get — keeping the two modes' virtual
			// timelines identical.
			d = e.restoreCost
		}
		ctx.now += d
		r.rt.tel.Handle(ctrRestoredBytes).Add(int64(len(data)))
	}
	if hasOutput {
		size := e.size
		if size == 0 {
			// Regions have a one-byte floor; deliver the smallest region
			// with an empty payload rather than starving successors.
			size = 1
		}
		out, err := ctx.Output(size)
		if err != nil {
			return 0, nil, err
		}
		if e.size > 0 {
			payload := data
			if lazy {
				// Placeholder of the snapshot's exact size: the write below
				// prices identically to the eager path, and the real bytes
				// arrive through lazyRestore.hydrate if ever needed.
				payload = make([]byte, e.size)
			}
			f := out.WriteAsync(ctx.now, 0, payload)
			now, err := f.Await(ctx.now)
			if err != nil {
				ctx.releaseAll()
				return 0, nil, err
			}
			ctx.now = now
			if lazy {
				r.smu.Lock()
				r.lazy[t.ID()] = &lazyRestore{}
				r.smu.Unlock()
			}
		}
		if err := r.deliverOutput(ctx, t); err != nil {
			ctx.releaseAll()
			return 0, nil, err
		}
	}
	ctx.Log("restored from checkpoint")
	r.rt.tel.Handle(ctrRestores).Add(1)
	r.flushEvents(ctx)
	return ctx.now, ctx.report(start, telemetry.LayerFault, "restore"), nil
}
