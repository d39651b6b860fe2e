package core

// This file implements core.Server — the concurrent job-submission engine
// the paper's deployment story implies (§2.1: "dataflow systems that serve
// thousands of jobs in parallel"). Runtime.Run gives per-call epoch
// isolation; Server adds what a multi-tenant front door needs on top:
//
//   - a bounded admission queue with configurable backpressure (fail fast
//     with ErrQueueFull, or block until a slot frees) and an async
//     ticket-based submission API (SubmitAsync/Ticket) mirroring the
//     paper's future-based far-memory interface at the job level,
//   - epoch workers that batch whatever is queued into shared virtual-time
//     epochs and, by default, *overlap* the whole batch on one bounded
//     worker pool: every member's ready tasks compete for the shared slots
//     in deterministic (rank, submission) order while each member's virtual
//     time stays byte-identical to running the job alone
//     (Batching: BatchSequential restores job-after-job RunAll-style
//     contention; separate batches are fully isolated either way),
//   - per-job context cancellation and deadlines, honored while queued and
//     between tasks during execution,
//   - optional fault-tolerant execution (ServerConfig.Recovery): task
//     outputs are checkpointed into a shared fault.Store and failed jobs
//     are retried inside the batch with checkpointed tasks restored
//     instead of re-executed (challenge 8(3)),
//   - graceful drain on Close, and
//   - per-job admission / queue-wait / rejection counters plus spans in the
//     runtime's telemetry registry, so the serving path is observable.
//
// Within a batch, each submission gets a unique owner namespace, so many
// tenants may submit jobs with the same name concurrently.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Errors reported by the serving layer.
var (
	// ErrQueueFull is returned by Submit when the admission queue is full
	// and the server was configured to reject rather than block.
	ErrQueueFull = errors.New("core: server admission queue full")
	// ErrServerClosed is returned by Submit after Close started draining.
	ErrServerClosed = errors.New("core: server closed")
)

// ServerConfig assembles a Server. Zero fields get serving defaults.
//
// The embedded ExecConfig is the single source of execution knobs — the
// topology, placer, scheduler, telemetry, fault injection, and the
// worker-pool bound (ExecConfig.Workers) every batch's tasks share. It is
// consulted only when Runtime is nil; a non-nil Runtime brings its own.
// Note the worker-knob split: ExecConfig.Workers bounds *task* concurrency
// inside one batch, EpochWorkers bounds how many *batches* run at once.
type ServerConfig struct {
	ExecConfig
	// Runtime executes the admitted jobs. Nil builds one from the embedded
	// ExecConfig (whose zero value gives the reference testbed, best-fit
	// placer, and HEFT scheduler).
	Runtime *Runtime
	// QueueDepth bounds the admission queue (default 64). Submissions
	// beyond the bound are rejected or block, per Block.
	QueueDepth int
	// EpochWorkers is the number of epoch workers serving the queue
	// (default 4). Each worker runs one batch at a time; batches run
	// concurrently.
	EpochWorkers int
	// MaxBatch caps how many queued jobs one worker folds into a shared
	// virtual-time epoch (default 8). 1 disables batching: every job gets
	// a private epoch.
	MaxBatch int
	// Block selects the backpressure policy: false (default) makes Submit
	// fail fast with ErrQueueFull when the queue is full; true makes it
	// block until a slot frees or the submission's context ends.
	Block bool
	// MaxLinger bounds how long a worker waits for the queue to yield more
	// jobs before launching a partial batch. Zero (the default) keeps
	// collection opportunistic: the worker grabs whatever is already queued
	// and launches immediately. A positive linger trades a bounded amount
	// of queue wait for fuller batches.
	MaxLinger time.Duration
	// Batching selects how a batch's members execute. BatchOverlapped (the
	// zero value) overlaps whole jobs on the batch's shared worker pool
	// with virtual isolation: every member's virtual-time report is
	// computed as if it ran alone, and batch mates contend only for
	// wall-clock resources. BatchSequential executes members
	// job-after-job over shared core clocks and epoch backlog, each
	// queueing behind its predecessors (RunAll semantics — virtual
	// contention inside the batch).
	Batching BatchMode
	// Recovery, when set, makes every admitted job run fault-tolerantly:
	// task outputs are checkpointed into the policy's store and a failed
	// job is retried in place (restored tasks replayed inside its batch)
	// up to MaxAttempts. Nil disables recovery: failures surface
	// directly to the submitter.
	Recovery *RecoveryPolicy
	// SLO, when set, makes admission deadline-aware: every submission is
	// priced with the scheduler's makespan estimate against a deterministic
	// queue model of the pool, and predicted deadline misses are rejected
	// (ErrDeadline) or down-tiered before they consume a queue slot. The
	// model charges capacity at decision time, so pair it with Block or a
	// queue deep enough that SLO admission — not ErrQueueFull — is the
	// effective gate. See slo.go.
	SLO *SLOPolicy
	// AutoScale, when set, lets the server grow and shrink its live
	// epoch-worker pool between the policy's bounds, steering the observed
	// queue-wait p99 toward the policy target. Purely a wall-clock control:
	// it never alters admission decisions or virtual-time reports.
	AutoScale *AutoScalePolicy
}

// BatchMode selects how a serving batch's members execute
// (ServerConfig.Batching).
type BatchMode int

const (
	// BatchOverlapped (default) overlaps whole jobs on the batch's shared
	// worker pool with per-member virtual isolation.
	BatchOverlapped BatchMode = iota
	// BatchSequential executes members job-after-job with virtual
	// contention inside the batch (RunAll semantics).
	BatchSequential
)

// RecoveryPolicy configures fault-tolerant serving (ServerConfig.Recovery).
type RecoveryPolicy struct {
	// Store is the fault-tolerant far-memory store holding checkpoints,
	// shared by all workers — the operator's redundancy choice
	// (fault.NewReplicatedStore, fault.NewErasureStore). Nil builds a
	// default 2-way replicated store over a private 3-node fabric.
	Store fault.Store
	// Checkpointer, when set, is used directly instead of wrapping Store —
	// the way a sharded deployment shares one snapshot namespace across
	// every shard's server, so a job resubmitted on a survivor
	// (SubmitOptions.ResumeID) can restore what a dead shard checkpointed.
	Checkpointer *Checkpointer
	// MaxAttempts caps total runs per submission, first included
	// (default 3).
	MaxAttempts int
	// Backoff is the base per-retry delay in virtual time. Retries back off
	// exponentially: the wait before attempt n+1 is Backoff·2^(n-1), capped
	// at BackoffCap. Batch mates are unaffected; the waits a submission
	// accumulated are reported in Report.AttemptWaits.
	Backoff time.Duration
	// BackoffCap bounds the exponential growth (default 8×Backoff).
	BackoffCap time.Duration
	// PartialReplay resumes a retried job from the failed task onward:
	// tasks whose checkpoints survived with unchanged transitive inputs are
	// completed from their replay records without re-execution, and their
	// outputs are rebound from the store lazily — restore I/O is performed
	// (and charged to real wall-clock) only when a replayed successor
	// actually reads the region. Virtual-time accounting is identical to
	// full replay: retried reports are byte-for-byte the same either way,
	// only the real restore I/O and re-execution work are elided.
	PartialReplay bool
}

// backoffWait is the virtual-time delay inserted before the retry that
// follows a failed attempt (1-based): backoff·2^(attempt-1), capped.
func backoffWait(rec *RecoveryPolicy, attempt int) time.Duration {
	if rec.Backoff <= 0 {
		return 0
	}
	w := rec.Backoff
	for i := 1; i < attempt && w < rec.BackoffCap; i++ {
		if w <<= 1; w <= 0 { // the shift overflowed
			return rec.BackoffCap
		}
	}
	return min(w, rec.BackoffCap)
}

// Ticket is an asynchronously admitted submission, returned by SubmitAsync.
// Exactly one outcome is delivered per ticket; once Done() is closed, Wait
// returns that outcome without blocking, any number of times, from any
// goroutine.
type Ticket struct {
	id         uint64
	bestEffort bool
	done       chan struct{}
	report     *Report
	err        error
}

// ID returns the submission's admission sequence number, unique per server
// — the same number that namespaces the job's regions and checkpoints.
func (t *Ticket) ID() uint64 { return t.id }

// BestEffort reports whether SLO admission down-tiered this submission
// (predicted deadline miss under a DownTier policy). Known at admission
// time, so callers can log the tier before the job runs.
func (t *Ticket) BestEffort() bool { return t.bestEffort }

// Done returns a channel closed when the job's outcome is available.
// Callers multiplexing many tickets select on it and then call Wait.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the outcome is available or ctx ends; a nil ctx means
// context.Background(). Wait returning ctx.Err() abandons only this call —
// the job's lifetime follows the context given to SubmitAsync, and a later
// Wait still observes the outcome.
func (t *Ticket) Wait(ctx context.Context) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-t.done:
		return t.report, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// deliver publishes the outcome. Called exactly once, by the serving side.
func (t *Ticket) deliver(rep *Report, err error) {
	t.report, t.err = rep, err
	close(t.done)
}

// NewRoutedTicket mints a caller-owned ticket for a routing front end (a
// shard router) that multiplexes server tickets behind its own: the router
// returns the routed ticket to the submitter and Delivers the outcome of
// whichever shard attempt finally settles the job. Never handed to a
// Server.
func NewRoutedTicket(id uint64, bestEffort bool) *Ticket {
	return &Ticket{id: id, bestEffort: bestEffort, done: make(chan struct{})}
}

// Deliver publishes the outcome of a routed ticket (NewRoutedTicket). Must
// be called exactly once; calling it on a server-issued ticket is a bug
// (the server delivers those itself).
func (t *Ticket) Deliver(rep *Report, err error) { t.deliver(rep, err) }

// jobTicket is one admitted submission's server-side state.
type jobTicket struct {
	job      *dataflow.Job
	ctx      context.Context
	enqueued time.Time
	tk       *Ticket
	// SLO admission state (zero without ServerConfig.SLO): the plan the
	// estimate was derived from — reused by overlapped batches instead of
	// replanning — plus the deadline judged against, the model's predicted
	// sojourn, and whether the job was down-tiered to best-effort.
	plan       *sched.Schedule
	deadline   time.Duration
	slowait    time.Duration // model's predicted virtual queue wait
	predicted  time.Duration // slowait + makespan estimate
	bestEffort bool
	// Sharded-serving metadata (SubmitOptions.Shard/ResumeID): the shard
	// label stamped on the report, and the externally owned checkpoint
	// namespace a failover re-submission resumes from.
	shard  string
	resume string
}

// Server is the admission-controlled serving engine. It is safe for
// concurrent use by multiple goroutines.
type Server struct {
	rt        *Runtime
	workers   int // configured EpochWorkers (the auto-scaler's baseline)
	maxBatch  int
	block     bool
	maxLinger time.Duration
	batching  BatchMode
	rec       *RecoveryPolicy // nil: recovery disabled
	slo       *sloState       // nil: admission is deadline-blind
	scaler    *scaler         // nil: fixed worker pool

	queue chan *jobTicket
	// shrink carries the auto-scaler's scale-down tokens; a worker that
	// observes one exits. Nil (blocking forever in selects) without a
	// scaler.
	shrink chan struct{}
	wg     sync.WaitGroup
	seq    atomic.Uint64

	// gate serializes admission against Close: submissions hold the read
	// side while enqueueing, Close takes the write side to flip closed, so
	// the queue channel is only closed once no send can be in flight.
	gate   sync.RWMutex
	closed bool
}

// NewServer builds and starts a serving engine: its workers are live when
// NewServer returns. Callers must Close it to drain.
func NewServer(cfg ServerConfig) (*Server, error) {
	rt := cfg.Runtime
	if rt == nil {
		var err error
		rt, err = New(cfg.ExecConfig)
		if err != nil {
			return nil, err
		}
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	workers := cfg.EpochWorkers
	if workers <= 0 {
		workers = 4
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 8
	}
	var rec *RecoveryPolicy // resolved copy: Checkpointer set, defaults applied
	if cfg.Recovery != nil {
		p := *cfg.Recovery
		if p.Checkpointer == nil {
			if p.Store == nil {
				var err error
				if p.Store, err = defaultFaultStore(); err != nil {
					return nil, err
				}
			}
			p.Checkpointer = NewCheckpointer(p.Store)
		}
		if p.MaxAttempts <= 0 {
			p.MaxAttempts = 3
		}
		if p.BackoffCap <= 0 {
			p.BackoffCap = 8 * p.Backoff
		}
		rec = &p
	}
	s := &Server{
		rt:        rt,
		workers:   workers,
		maxBatch:  maxBatch,
		block:     cfg.Block,
		maxLinger: cfg.MaxLinger,
		batching:  cfg.Batching,
		rec:       rec,
		queue:     make(chan *jobTicket, depth),
	}
	if cfg.SLO != nil {
		s.slo = newSLOState(*cfg.SLO, workers)
	}
	if cfg.AutoScale != nil {
		s.scaler = newScaler(s, *cfg.AutoScale, workers)
		s.shrink = make(chan struct{}, s.scaler.pol.Max)
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.scaler != nil {
		go s.scaler.loop()
	}
	return s, nil
}

// Runtime returns the runtime executing the admitted jobs.
func (s *Server) Runtime() *Runtime { return s.rt }

// Rebalance runs one region-tiering sweep on the server's runtime, priced
// inside a private epoch (region.RebalanceIn) so it is safe to call while
// the server is serving: admitted batches never observe the sweep's device
// backlog. With an exporter wired into the region manager (cross-shard
// migration), the sweep may also evict cold regions to the remote pool and
// recall hot exported ones.
func (s *Server) Rebalance(now time.Duration, pol region.RebalancePolicy) (region.RebalanceStats, error) {
	return s.rt.Regions().RebalanceIn(s.rt.Topology().NewEpoch(), now, pol)
}

// Checkpointer returns the recovery checkpointer, or nil when the server
// was built without a RecoveryPolicy.
func (s *Server) Checkpointer() *Checkpointer {
	if s.rec == nil {
		return nil
	}
	return s.rec.Checkpointer
}

// resolveOpts folds a variadic options list into the single effective
// SubmitOptions — the unified submission surface accepts at most one.
func resolveOpts(opts []SubmitOptions) (SubmitOptions, error) {
	switch len(opts) {
	case 0:
		return SubmitOptions{}, nil
	case 1:
		return opts[0], nil
	default:
		return SubmitOptions{}, errors.New("core: at most one SubmitOptions per submission")
	}
}

// SubmitAsync admits a job without waiting for it to execute: it returns a
// Ticket as soon as the job is queued, or an admission error (a validation
// failure, ErrQueueFull, ErrServerClosed, ErrDeadline under an SLO policy,
// or — when Block is set and the queue stays full — ctx's error)
// immediately. The submission ctx governs the job's whole lifetime, exactly
// as with Submit: a job canceled while queued is never executed; one
// canceled mid-run is stopped at the next task boundary and its regions are
// released. The outcome is retrieved via the ticket (Done, Wait).
//
// At most one SubmitOptions may be passed — the whole per-submission
// surface in one place: virtual arrival and deadline for the SLO admission
// model, forced best-effort tiering, the shard label, an external
// checkpoint namespace to resume from, and pre-admission. Traffic
// harnesses submit through the options so replayed arrival sequences make
// identical admission decisions run-to-run. Submit and SubmitStream accept
// the same options; omitted options mean a plain submission.
func (s *Server) SubmitAsync(ctx context.Context, job *dataflow.Job, opts ...SubmitOptions) (*Ticket, error) {
	opt, err := resolveOpts(opts)
	if err != nil {
		return nil, err
	}
	return s.submitAsync(ctx, job, opt)
}

// submitAsync is the single admission path behind Submit, SubmitAsync, and
// (per window) SubmitStream.
func (s *Server) submitAsync(ctx context.Context, job *dataflow.Job, opt SubmitOptions) (*Ticket, error) {
	if job == nil {
		return nil, errors.New("core: nil job")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	// A submission whose context already ended must never reach the queue:
	// it would ride a batch slot (and MaxLinger wait) only to be dropped at
	// dequeue. Refuse it here and account it as canceled, not rejected —
	// the server had room, the submitter had given up.
	if err := ctx.Err(); err != nil {
		s.rt.tel.Handle(ctrServerCanceled).Add(1)
		return nil, err
	}
	t := &jobTicket{
		job: job, ctx: ctx, enqueued: time.Now(),
		tk:    &Ticket{id: s.seq.Add(1), done: make(chan struct{})},
		shard: opt.Shard, resume: opt.ResumeID,
	}
	if s.slo != nil && !opt.Preadmitted {
		est, plan, err := sched.EstimateJob(job, s.rt.topo, s.rt.sched)
		if err != nil {
			return nil, err
		}
		wait, predicted, tier := s.slo.admit(opt, est.Makespan)
		if tier == tierRejected {
			s.rt.tel.Handle(ctrServerSloRejected).Add(1)
			return nil, fmt.Errorf("%w: predicted %v, deadline %v", ErrDeadline, predicted, s.slo.deadlineFor(opt))
		}
		t.plan, t.slowait, t.predicted = plan, wait, predicted
		t.deadline = s.slo.deadlineFor(opt)
		if tier == tierBestEffort {
			t.bestEffort = true
			t.tk.bestEffort = true
			s.rt.tel.Handle(ctrServerDowntiered).Add(1)
		}
	}
	if opt.BestEffort && !t.bestEffort {
		// Forced tiering outside the SLO path (no policy, or pre-admitted):
		// the submission still runs and is marked best-effort.
		t.bestEffort = true
		t.tk.bestEffort = true
	}

	s.gate.RLock()
	var refused error
	switch {
	case s.closed:
		refused = ErrServerClosed
	case s.block:
		select {
		case s.queue <- t:
		case <-ctx.Done():
			refused = ctx.Err()
		}
	default:
		select {
		case s.queue <- t:
		default:
			refused = ErrQueueFull
		}
	}
	s.gate.RUnlock()
	if refused != nil {
		s.rt.tel.Handle(ctrServerRejected).Add(1)
		return nil, refused
	}
	s.rt.tel.Handle(ctrServerAdmitted).Add(1)
	return t.tk, nil
}

// Submit admits a job and blocks until its report is ready, admission is
// refused (ErrQueueFull, ErrServerClosed), or ctx ends. A nil ctx means
// context.Background(). It is exactly SubmitAsync — same unified options
// surface, at most one SubmitOptions — followed by Wait on the same
// context.
func (s *Server) Submit(ctx context.Context, job *dataflow.Job, opts ...SubmitOptions) (*Report, error) {
	tk, err := s.SubmitAsync(ctx, job, opts...)
	if err != nil {
		return nil, err
	}
	return tk.Wait(ctx)
}

// Close stops admission and drains: already-admitted jobs run to
// completion, then the workers exit. Returns ctx.Err() if ctx ends before
// the drain finishes (the workers keep draining in the background). Safe to
// call more than once; a nil ctx means context.Background().
func (s *Server) Close(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.gate.Lock()
	already := s.closed
	s.closed = true
	s.gate.Unlock()
	if !already {
		// The scale controller must be fully stopped before the drain: a
		// late scale-up would Add on a WaitGroup already being waited on.
		if s.scaler != nil {
			s.scaler.stopWait()
		}
		close(s.queue) // no Submit can be mid-send once the gate flipped
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker serves batches until the queue is closed and drained, or the
// auto-scaler hands it a scale-down token.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case t, ok := <-s.queue:
			if !ok {
				return
			}
			s.serveBatch(s.collect(t))
		case <-s.shrink: // nil without a scaler: never ready
			return
		}
	}
}

// collect folds queued jobs behind first into one batch, up to MaxBatch —
// the batch shares one virtual-time epoch. With MaxLinger zero the fold is
// opportunistic (whatever is already queued); a positive linger waits that
// long for stragglers, bounding the queue wait it can add to first.
//
// Tickets whose context ended while queued are finished here and never
// occupy a batch slot: a dead job must not displace a live one from the
// epoch, nor stretch the linger wait of the jobs it rides with. The batch
// may come back empty (every candidate was dead); serveBatch no-ops on it.
func (s *Server) collect(first *jobTicket) []*jobTicket {
	batch := s.appendLive(nil, first)
	var linger <-chan time.Time
	if s.maxLinger > 0 {
		timer := time.NewTimer(s.maxLinger)
		defer timer.Stop()
		linger = timer.C
	}
	for len(batch) < s.maxBatch {
		var t *jobTicket
		ok := true
		if linger != nil {
			select {
			case t, ok = <-s.queue:
			case <-linger:
				return batch
			}
		} else {
			select {
			case t, ok = <-s.queue:
			default:
				return batch
			}
		}
		if !ok {
			return batch
		}
		batch = s.appendLive(batch, t)
	}
	return batch
}

// appendLive folds a dequeued ticket into the batch, unless its context
// already ended — then the outcome is delivered immediately and the batch
// is returned unchanged (the canceled-while-queued drop, counted under
// server_canceled).
func (s *Server) appendLive(batch []*jobTicket, t *jobTicket) []*jobTicket {
	if err := t.ctx.Err(); err != nil {
		s.noteQueueWait(time.Since(t.enqueued))
		s.rt.tel.Handle(ctrServerCanceled).Add(1)
		t.tk.deliver(nil, err)
		return batch
	}
	return append(batch, t)
}

// noteQueueWait records one observed queue wait — into the shared telemetry
// histogram and, when auto-scaling, the controller's sliding window.
func (s *Server) noteQueueWait(d time.Duration) {
	s.rt.tel.Observe(telemetry.LayerRuntime, "server_queue_wait", d)
	if s.scaler != nil {
		s.scaler.note(d)
	}
}

// serveBatch hands one collected batch to the batch executor (exec.go) in
// the server's batch mode. Failures and cancellations are isolated per job:
// the failing run's regions are released and only its submitter sees the
// error.
//
// The two modes differ in what batch mates share. Sequential: one core
// clock map and the epoch's accumulated backlog — members queue behind each
// other in virtual time (RunAll semantics). Overlapped (default): members
// get private core clocks and are planned against an empty load, so each
// member's virtual-time report is byte-identical to running the job alone
// at any pool size; mates contend only for wall-clock resources (the
// shared worker pool, the allocator, the checkpoint store).
func (s *Server) serveBatch(batch []*jobTicket) {
	rt := s.rt
	dequeued := time.Now()

	// Queue-wait accounting; jobs whose context ended between collect and
	// here (collect already dropped those dead while queued) are finished
	// without ever executing.
	live := make(map[*member]*jobTicket, len(batch))
	ms := make([]*member, 0, len(batch))
	for _, t := range batch {
		s.noteQueueWait(dequeued.Sub(t.enqueued))
		if err := t.ctx.Err(); err != nil {
			rt.tel.Handle(ctrServerCanceled).Add(1)
			t.tk.deliver(nil, err)
			continue
		}
		// A unique owner namespace per submission lets identical jobs share
		// the epoch without region-owner collisions. Overlapped members
		// reuse the SLO admission plan: it was made against an idle
		// machine, exactly the plan they would get.
		m := &member{
			job: t.job, ns: fmt.Sprintf("%s#%d", t.job.Name(), t.tk.id),
			plan: t.plan, cancel: t.ctx.Err,
		}
		if s.rec != nil {
			// A submission carrying an external ResumeID adopts that
			// namespace: snapshots a previous (dead-shard) attempt persisted
			// there are restored rather than re-executed, and a cancel
			// leaves them to the namespace owner (the router's failover).
			m.ckID, m.keepCk = t.resume, t.resume != ""
			if m.ckID == "" {
				m.ckID = s.rec.Checkpointer.NewRunID(t.job.Name())
			}
		}
		live[m] = t
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return
	}
	rt.tel.Handle(ctrServerEpochs).Add(1)
	rt.execBatch(ms, s.batching, s.rec, func(m *member) {
		t := live[m]
		switch {
		case m.canceled:
			rt.tel.Handle(ctrServerCanceled).Add(1)
			t.tk.deliver(nil, m.err)
		case m.err != nil:
			rt.tel.Handle(ctrServerFailed).Add(1)
			t.tk.deliver(nil, m.taskErr())
		default:
			s.complete(t, m)
		}
	})
}

// complete decorates a finished member's report with its serving metadata
// and delivers it. Recovered jobs — retried, or resuming a dead shard's
// checkpoints — are distinguished in spans and counters so replayed work
// is visible in the serving profile.
func (s *Server) complete(t *jobTicket, m *member) {
	rep := m.r.report
	rep.Attempts = m.attempt
	rep.AttemptWaits = m.waits
	rep.BatchSize, rep.BatchIndex = m.size, m.pos
	rep.Overlapped = s.batching == BatchOverlapped
	rep.SLODeadline, rep.SLOWait, rep.SLOPredicted = t.deadline, t.slowait, t.predicted
	rep.BestEffort = t.bestEffort
	rep.Shard = t.shard
	span := "serve"
	if m.attempt > 1 || rep.SkippedTasks > 0 {
		span = "serve-recovered"
		s.rt.tel.Handle(ctrServerRecovered).Add(1)
	}
	s.rt.tel.Handle(ctrServerCompleted).Add(1)
	s.rt.tel.Record(telemetry.Span{
		Layer: telemetry.LayerRuntime, Job: t.job.Name(),
		Name: span, Start: 0, End: rep.Makespan,
	})
	t.tk.deliver(rep, nil)
}
