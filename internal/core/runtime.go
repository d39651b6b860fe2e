// Package core implements the paper's runtime system (RTS, §2.3) and is the
// public programming-model API of this library. The RTS:
//
//  1. determines at runtime which physical memory device fits each task's
//     declared requirements (via the placement optimizer),
//  2. allocates the Memory Regions tasks request (via the region manager),
//  3. deallocates regions after the last owning task finishes,
//  4. schedules tasks resource-aware onto heterogeneous compute devices,
//
// and moves data between tasks by ownership transfer (Fig. 4), falling back
// to physical copies only when the receiving compute device cannot address
// the producer's placement within the declared properties.
//
// Applications build a dataflow.Job, attach declarative properties, and call
// Runtime.Run. Everything below the Job API — devices, interconnects,
// coherence, fault tolerance — is simulated (see DESIGN.md §2), so runs are
// deterministic and hardware-independent.
package core

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// ExecConfig is the execution-engine configuration shared by the two entry
// points: Runtime construction (New) and the serving front door
// (ServerConfig embeds it). Zero fields get production defaults: the
// reference single-node testbed, the best-fit placement optimizer, and the
// HEFT scheduler.
type ExecConfig struct {
	Topology  *topology.Topology
	Placer    region.Placer
	Scheduler sched.Scheduler
	Telemetry *telemetry.Registry
	// Inject, when set, is consulted before every task execution and may
	// fail it deterministically (fault.ErrInjected) — the chaos hook tests
	// and disaggsim use to exercise recovery. Nil injects nothing.
	Inject *fault.Injector
	// Workers bounds the wavefront executor's worker pool: how many tasks
	// may execute their real work (transfers, copies, bodies, checkpoint
	// I/O) concurrently — within one run, and across every job of an
	// overlapped serving batch, which shares a single pool. Virtual time is
	// identical for every value — see wavefront.go. Zero or negative
	// defaults to GOMAXPROCS.
	Workers int
}

// Runtime is the RTS instance. Run is safe for concurrent submission from
// multiple goroutines: each call executes in its own virtual-time epoch
// (fresh device queues), so jobs never corrupt each other's clocks. For
// admission control, batching, and backpressure on top of this, use Server.
type Runtime struct {
	topo    *topology.Topology
	placer  region.Placer
	sched   sched.Scheduler
	regions *region.Manager
	tel     *telemetry.Registry
	inject  *fault.Injector
	workers int
}

// New builds a runtime.
func New(cfg ExecConfig) (*Runtime, error) {
	topo := cfg.Topology
	if topo == nil {
		t, err := topology.BuildSingleNode(topology.DefaultSingleNode())
		if err != nil {
			return nil, err
		}
		topo = t
	}
	placer := cfg.Placer
	if placer == nil {
		placer = placement.NewBestFit(topo)
	}
	scheduler := cfg.Scheduler
	if scheduler == nil {
		scheduler = sched.HEFT{}
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	mgr, err := region.NewManager(region.Config{Topology: topo, Placer: placer, Telemetry: tel})
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	return &Runtime{topo: topo, placer: placer, sched: scheduler, regions: mgr, tel: tel, inject: cfg.Inject, workers: workers}, nil
}

// Workers reports the wavefront executor's worker-pool bound.
func (rt *Runtime) Workers() int { return rt.workers }

// Topology returns the hardware graph.
func (rt *Runtime) Topology() *topology.Topology { return rt.topo }

// Regions exposes the region manager (examples and tests).
func (rt *Runtime) Regions() *region.Manager { return rt.regions }

// Telemetry returns the cross-layer metrics registry.
func (rt *Runtime) Telemetry() *telemetry.Registry { return rt.tel }

// Scheduler returns the task scheduler — load harnesses use it to price
// sampled jobs (sched.EstimateJob) when deriving arrival rates from a
// target utilization.
func (rt *Runtime) Scheduler() sched.Scheduler { return rt.sched }

// TaskReport describes one executed task.
type TaskReport struct {
	Task    string
	Compute string
	Start   time.Duration
	Finish  time.Duration
	// Regions maps region label → physical device the RTS chose, the
	// observable outcome of declarative placement (Fig. 3).
	Regions map[string]string
	Logs    []string
}

// Report is the outcome of one job run.
type Report struct {
	Job       string
	Scheduler string
	Placer    string
	Makespan  time.Duration
	Tasks     map[string]*TaskReport
	// PeakDeviceBytes is the high-water allocation per device.
	PeakDeviceBytes map[string]int64
	// FinalOutputs maps sink task → device holding its retained output.
	FinalOutputs map[string]string
	// Attempts is the number of runs recovery needed to complete the job
	// (1 = no retry). Zero when the run was not recovery-managed.
	Attempts int
	// AttemptWaits records the virtual backoff each retry waited before
	// starting: AttemptWaits[i] is the delay applied ahead of attempt i+2.
	// Empty when the job completed on its first attempt (or recovery was
	// not policy-managed).
	AttemptWaits []time.Duration
	// BatchSize and BatchIndex identify the serving batch this job executed
	// in: how many jobs its epoch packed and this job's position in
	// admission order. Both zero outside the serving path (Runtime.Run,
	// RunAll). Like every other report field they are a pure function of
	// the batch, identical at any worker-pool size.
	BatchSize  int
	BatchIndex int
	// Overlapped reports whether the batch executed its members
	// concurrently on a shared worker pool (the Server's default) rather
	// than job-after-job (BatchSequential).
	Overlapped bool
	// SLODeadline, SLOWait, and SLOPredicted are the deadline this
	// submission was admitted against, the admission model's predicted
	// virtual queue wait, and the predicted virtual sojourn (wait +
	// makespan estimate). The achieved virtual sojourn is SLOWait +
	// Makespan — what SLO attainment is measured on. All zero without
	// ServerConfig.SLO.
	SLODeadline  time.Duration
	SLOWait      time.Duration
	SLOPredicted time.Duration
	// BestEffort marks a job the SLO policy down-tiered at admission: it
	// was predicted to miss its deadline and runs outside the SLO-attaining
	// population (SLOPolicy.DownTier).
	BestEffort bool
	// SkippedTasks counts tasks this run completed from checkpoint
	// snapshots without re-executing their bodies — the replay skip set of
	// a recovery retry. Zero on a first attempt and outside recovery. The
	// count is identical under full and partial replay: the modes differ
	// only in when the real restore I/O happens, never in what is skipped.
	SkippedTasks int
	// ReplayedTasks counts tasks the final (successful) retry actually
	// re-executed — everything not skipped. Zero when the job completed on
	// its first attempt. SkippedTasks + ReplayedTasks == len(Tasks) on a
	// recovered report.
	ReplayedTasks int
	// Shard labels the serving shard that executed this submission
	// (SubmitOptions.Shard); empty outside sharded serving. Deliberately
	// excluded from String() so sharded reports stay byte-identical to solo
	// runs.
	Shard string
}

// String renders the report as a fixed-width table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %q (%s scheduler, %s placer): makespan %v\n", r.Job, r.Scheduler, r.Placer, r.Makespan)
	ids := make([]string, 0, len(r.Tasks))
	for id := range r.Tasks {
		ids = append(ids, id)
	}
	// Stable order with an ID tie-break: map iteration seeds ids randomly,
	// so sorting on Start alone renders same-start tasks nondeterministically.
	sort.SliceStable(ids, func(a, b int) bool {
		ta, tb := r.Tasks[ids[a]], r.Tasks[ids[b]]
		if ta.Start != tb.Start {
			return ta.Start < tb.Start
		}
		return ids[a] < ids[b]
	})
	for _, id := range ids {
		t := r.Tasks[id]
		fmt.Fprintf(&b, "  %-22s on %-14s %12v → %12v\n", t.Task, t.Compute, t.Start, t.Finish)
		names := make([]string, 0, len(t.Regions))
		for n := range t.Regions {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "      region %-18s → %s\n", n, t.Regions[n])
		}
		for _, l := range t.Logs {
			fmt.Fprintf(&b, "      log: %s\n", l)
		}
	}
	return b.String()
}

// globalEntry is a job-wide named region (Global State / Global Scratch).
type globalEntry struct {
	handle *region.Handle
	class  props.RegionClass
	shared map[string]*region.Handle // task id → that task's share
}

// run is the per-job execution state.
type run struct {
	rt       *Runtime
	job      *dataflow.Job
	schedule *sched.Schedule
	// epoch is the virtual-time view this run's accesses queue against.
	// Runs in different epochs are fully isolated; runs sharing one epoch
	// (sequential batches) contend on the same device queues.
	epoch *topology.Epoch
	// ns namespaces region owners. The job name outside serving; the Server
	// makes it unique per submission so identical jobs can run in one
	// shared epoch without their owners colliding.
	ns string
	// base is the earliest virtual time any task of this run may start —
	// recovery retries use it to model per-attempt backoff on the epoch
	// clock without perturbing batch mates.
	base  time.Duration
	cores map[string][]time.Duration
	// smu guards the cross-task shared maps (pending, globals) and the
	// memory ledger against concurrent wavefront task goroutines. It is a
	// leaf lock: nothing is called while holding it.
	smu sync.Mutex
	// pending maps consumer task → producer task → delivered handle.
	pending map[string]map[string]*region.Handle
	globals map[string]*globalEntry
	// ranks maps task ID → deterministic topological rank for the current
	// wavefront attempt (set by newWavefront). deliverOutput uses it to
	// record consumer ranks on fan-out shares, which is what lets those
	// regions fence per sharer instead of against the whole run.
	ranks map[string]int
	// events is the virtual memory ledger completed tasks journal into;
	// computePeak sweeps it deterministically at run end (wavefront.go).
	events []memEvent
	report *Report
	ck     *Checkpointer // nil unless recovery drives the run
	ckID   string        // unique per-submission snapshot namespace
	// partial selects lazy restore I/O on replay: a replayed task's output
	// payload is fetched from the store only when a re-executed consumer
	// receives it as input, instead of eagerly when the task is replayed.
	// Virtual time is identical either way (see restoreTaskAt).
	partial bool
	// lazy maps a replayed producer's task ID to its re-materialized
	// output's restore state. Written by replay task goroutines, read by
	// consuming task goroutines (both guarded by smu).
	lazy map[string]*lazyRestore
}

// Run executes the job to completion on the virtual clock and returns the
// report. On task failure every live region is released before returning
// (no leaks), and the error identifies the failing task.
func (rt *Runtime) Run(job *dataflow.Job) (*Report, error) {
	m, err := rt.runOne(job, nil)
	if err != nil {
		return nil, err
	}
	return m.r.report, nil
}

// runOne executes job as an overlapped batch of one in a fresh epoch, so
// concurrent calls are isolated, retrying under rec (nil: one attempt).
// Region owners are namespaced by the job name. It is the engine behind
// Run, RunWithRecovery, and RunWithPartialReplay; the returned member
// carries the attempt count even when the error is non-nil.
func (rt *Runtime) runOne(job *dataflow.Job, rec *RecoveryPolicy) (*member, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	m := &member{job: job, ns: job.Name()}
	if rec != nil {
		m.ckID = rec.Checkpointer.NewRunID(job.Name())
	}
	rt.execBatch([]*member{m}, BatchOverlapped, rec, func(*member) {})
	if m.failed != "" {
		return m, fmt.Errorf("core: task %s: %w", m.failed, m.err)
	}
	return m, m.err
}

// newRun assembles per-job execution state. cores may be shared between
// runs (sequential batches, retries); nil gets this run its own fresh core
// availability. ns namespaces region owners (see run.ns).
func (rt *Runtime) newRun(job *dataflow.Job, schedule *sched.Schedule, epoch *topology.Epoch, ns string, cores map[string][]time.Duration) *run {
	if cores == nil {
		cores = rt.newCores()
	}
	return &run{
		rt:       rt,
		job:      job,
		schedule: schedule,
		epoch:    epoch,
		ns:       ns,
		cores:    cores,
		pending:  make(map[string]map[string]*region.Handle),
		globals:  make(map[string]*globalEntry),
		lazy:     make(map[string]*lazyRestore),
		report: &Report{
			Job: job.Name(), Scheduler: rt.sched.Name(), Placer: rt.placer.Name(),
			Tasks:        make(map[string]*TaskReport),
			FinalOutputs: make(map[string]string),
		},
	}
}

// execTaskAt runs one task at its scheduled placement, starting at the
// virtual time the dispatcher's core claim granted. It runs on a wavefront
// worker goroutine: all cross-task state it touches is either owned by this
// task (ctx, its clock view) or guarded (r.smu for pending/globals/ledger,
// w.mu inside fences). It returns the task's virtual finish time and report
// — both non-nil even when a trailing release failed, matching the
// sequential engine's accounting — or a nil report on failure before
// completion.
func (r *run) execTaskAt(w *wavefront, k int, t *dataflow.Task, view *topology.TaskView, start time.Duration) (time.Duration, *TaskReport, error) {
	asg := r.schedule.Assignments[t.ID()]
	comp, _ := r.rt.topo.Compute(asg.Compute)
	ctx := &taskCtx{
		run: r, task: t, compute: comp,
		now:     start,
		owner:   region.Owner(r.ns + "/" + t.ID()),
		regions: make(map[string]string),
		view:    view,
		rank:    k,
	}
	ctx.fence = func(deps []int) error { return w.fence(k, deps) }
	// Recovery fast path: a checkpointed task is restored, not re-run.
	if w.restored[k] {
		return r.restoreTaskAt(ctx, t, start)
	}
	// Collect inputs: transfer exclusive outputs from predecessors (the
	// Fig. 4 handover), adopt shared ones as-is. Handles are rebound to
	// this task's clock view and fence as they cross the task boundary.
	for _, p := range t.Preds() {
		r.smu.Lock()
		h := r.pending[t.ID()][p.ID()]
		delete(r.pending[t.ID()], p.ID())
		lr := r.lazy[p.ID()]
		r.smu.Unlock()
		if h == nil {
			continue
		}
		if lr != nil {
			// The producer was replayed from its checkpoint under partial
			// replay: its region carries a placeholder payload until a task
			// that actually re-executes receives it as input. Fetch the real
			// bytes now (wall-clock only — the restore's virtual price was
			// charged at the replayed producer, identically in both modes).
			if err := lr.hydrate(r, p.ID(), h); err != nil {
				ctx.inputs = append(ctx.inputs, h) // keep it releasable
				ctx.releaseAll()
				return 0, nil, fmt.Errorf("restoring input from %s: %w", p.ID(), err)
			}
		}
		h.Rebind(view, k, ctx.fence)
		if cls, err := h.Class(); err == nil && cls == props.Transfer {
			fromDev, _ := h.DeviceID()
			nh, done, err := h.Transfer(ctx.now, ctx.owner, asg.Compute)
			if err != nil {
				ctx.inputs = append(ctx.inputs, h) // keep it releasable
				ctx.releaseAll()
				return 0, nil, fmt.Errorf("input transfer from %s: %w", p.ID(), err)
			}
			ctx.now = done
			h = nh
			if toDev, err := h.DeviceID(); err == nil && toDev != fromDev {
				ctx.noteMove(h)
			}
		}
		ctx.inputs = append(ctx.inputs, h)
	}

	// Fault injection happened eagerly at wavefront start (rank-ordered
	// verdicts, see newWavefront): a task that reaches this point passed.
	// Run the body; structural tasks (nil fn) still cost their declared
	// Ops and produce their declared output.
	if fn := t.Fn(); fn != nil {
		if err := fn(ctx); err != nil {
			ctx.releaseAll()
			return 0, nil, err
		}
	}
	ctx.Charge(t.Props().Ops)
	if ctx.output == nil && t.Props().OutputBytes > 0 && len(t.Succs()) > 0 {
		if _, err := ctx.Output(t.Props().OutputBytes); err != nil {
			ctx.releaseAll()
			return 0, nil, fmt.Errorf("implicit output: %w", err)
		}
	}

	// Snapshot the output before it is handed over (fault tolerance).
	if r.ck != nil {
		if err := r.checkpointTask(ctx, t); err != nil {
			ctx.releaseAll()
			return 0, nil, err
		}
	}

	// Hand the output over.
	if ctx.output != nil {
		if err := r.deliverOutput(ctx, t); err != nil {
			ctx.releaseAll()
			return 0, nil, err
		}
	}
	// Scratch dies with the task; inputs were consumed.
	ctx.releaseScratchAndInputs()
	// Release this task's shares of globals (the job-level owner keeps
	// them alive until the job ends). One failed release must not leak
	// the remaining shares: release them all in deterministic order and
	// aggregate the errors.
	names := make([]string, 0, len(ctx.globalShares))
	for name := range ctx.globalShares {
		names = append(names, name)
	}
	sort.Strings(names)
	var relErrs []error
	for _, name := range names {
		h := ctx.globalShares[name]
		if err := h.Release(); err != nil {
			relErrs = append(relErrs, fmt.Errorf("releasing global %s: %w", name, err))
		} else {
			ctx.noteRelease(h)
		}
	}

	// The task did run to completion: record its report and finish time
	// even when a share release failed, so downstream accounting (makespan,
	// spans, reports) stays consistent.
	r.flushEvents(ctx)
	if r.ck != nil && relErrs == nil {
		// Fully successful: mark the snapshot warm-replayable so a later
		// attempt can replay it at the deterministic recorded price (and,
		// under partial replay, without eager restore I/O). A release error
		// keeps the entry cold — the retry restores it eagerly, exactly as
		// it always has.
		r.ck.record(r.ckID, t.ID(), ctx.ckRestoreCost)
	}
	return ctx.now, ctx.report(start, telemetry.LayerRuntime, "exec"), errors.Join(relErrs...)
}

// deliverOutput routes a finished task's output region to its successors:
// one successor → exclusive pending transfer; several → shared grants
// (Global Scratch semantics); none → retained as the job's final output.
func (r *run) deliverOutput(ctx *taskCtx, t *dataflow.Task) error {
	succs := t.Succs()
	switch len(succs) {
	case 0:
		dev, err := ctx.output.DeviceID()
		if err != nil {
			return err
		}
		r.smu.Lock()
		r.report.FinalOutputs[t.ID()] = dev
		// Retain until cleanup.
		r.globals["__final__/"+t.ID()] = &globalEntry{handle: ctx.output}
		r.smu.Unlock()
		ctx.output = nil
		return nil
	case 1:
		r.smu.Lock()
		if r.pending[succs[0].ID()] == nil {
			r.pending[succs[0].ID()] = make(map[string]*region.Handle)
		}
		r.pending[succs[0].ID()][t.ID()] = ctx.output
		r.smu.Unlock()
		ctx.output = nil
		return nil
	default:
		for _, s := range succs {
			sAsg := r.schedule.Assignments[s.ID()]
			// All fan-out shares are granted here, at producer completion —
			// before any consumer can launch — so the region's sharer set is
			// closed by construction and ShareRanked's per-sharer fencing is
			// sound (see wavefront.fence).
			sh, err := ctx.output.ShareRanked(region.Owner(r.ns+"/"+s.ID()+"/in"), sAsg.Compute, r.ranks[s.ID()])
			if err != nil {
				return fmt.Errorf("sharing output with %s: %w", s.ID(), err)
			}
			ctx.noteShare(sh)
			r.smu.Lock()
			if r.pending[s.ID()] == nil {
				r.pending[s.ID()] = make(map[string]*region.Handle)
			}
			r.pending[s.ID()][t.ID()] = sh
			r.smu.Unlock()
		}
		// The producer's own claim ends; the shares keep the region alive.
		out := ctx.output
		if err := out.Release(); err != nil {
			return err
		}
		ctx.noteRelease(out)
		ctx.output = nil
		return nil
	}
}

// cleanup releases everything the run still holds: job globals, retained
// final outputs, and any undelivered pending handles (failure paths).
func (r *run) cleanup() {
	r.smu.Lock()
	globals := r.globals
	pending := r.pending
	r.globals = map[string]*globalEntry{}
	r.pending = map[string]map[string]*region.Handle{}
	r.smu.Unlock()
	for _, g := range globals {
		if g.handle != nil {
			g.handle.Release() //nolint:errcheck // best-effort teardown
		}
	}
	for _, m := range pending {
		for _, h := range m {
			h.Release() //nolint:errcheck // best-effort teardown
		}
	}
}
