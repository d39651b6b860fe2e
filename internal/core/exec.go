package core

// This file is the one batch executor behind every entry point. Runtime.Run
// is an overlapped batch of one; RunWithRecovery and RunWithPartialReplay
// are a batch of one under a recovery policy; RunAll is a sequential batch;
// the Server hands each collected epoch batch to it. All of them share one
// retry loop.
//
// The executor plans every member in admission order, attaches members to
// one wavePool, and settles each member exactly once. The batch mode is a
// policy over that single loop:
//
//   - overlapped: every member attaches at once, with private core clocks
//     and a plan made against an idle machine, so its virtual-time report is
//     what the job would produce alone;
//   - sequential: the next member attaches when the previous one settles,
//     over one shared core map and a plan packed against the accumulating
//     load, so members queue behind each other (virtual contention).
//
// Each member seeds from an epoch snapshot taken at its first attach, and
// its retries reuse that snapshot. A failed attempt never absorbs views
// into the epoch, so the one rule reproduces both modes. A retry inherits
// the failed attempt's deterministically rewound core clocks (wavefront
// finalize), its checkpoints, and any backoff on its base time.

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/topology"
)

// member is one submission of a batch: its inputs, and the outcome the
// executor settles it with.
type member struct {
	job    *dataflow.Job
	ns     string          // region-owner namespace and fault-injector site prefix
	plan   *sched.Schedule // preset by SLO admission (reused when overlapped), else planned here
	ckID   string          // checkpoint namespace; empty without recovery
	keepCk bool            // a canceled member leaves ckID to its external owner
	cancel func() error    // cancellation probe; nil never cancels

	order []*dataflow.Task
	ranks map[string]int
	seed  *topology.TaskView // epoch snapshot at first attach, reused by every retry
	r     *run               // the current (finally, the settled) attempt

	pos, size int             // admission position and count of the batch's planned members
	attempt   int             // 1-based attempt number
	waits     []time.Duration // virtual backoff applied before each retry
	failed    string          // failing task of a failed outcome
	err       error           // nil: r.report is the outcome
	canceled  bool            // err came from the cancellation probe
}

// taskErr renders a failed outcome in the serving form, naming the job and
// the failing task.
func (m *member) taskErr() error {
	if m.failed != "" {
		return fmt.Errorf("core: job %s task %s: %w", m.job.Name(), m.failed, m.err)
	}
	return m.err
}

// batchExec is one execBatch call's state. Only the calling goroutine
// touches it.
type batchExec struct {
	rt     *Runtime
	rec    *RecoveryPolicy // nil: a failed attempt is final
	seq    bool
	epoch  *topology.Epoch
	cores  map[string][]time.Duration // shared core clocks (sequential); nil: private per member
	pool   *wavePool
	queue  []*member    // planned members awaiting their sequential turn
	ready  []*wavefront // attempts built and awaiting attach
	settle func(*member)
}

// execBatch runs ms to completion in mode, retrying under rec, and hands
// every member to settle exactly once, in the calling goroutine and never
// under the pool lock. Before settle sees a member, its checkpoint
// namespace is forgotten (unless keepCk kept it through a cancel) and a
// successful report's replay accounting is filled in.
func (rt *Runtime) execBatch(ms []*member, mode BatchMode, rec *RecoveryPolicy, settle func(*member)) {
	b := &batchExec{
		rt: rt, rec: rec, seq: mode == BatchSequential,
		epoch: rt.topo.NewEpoch(), pool: newWavePool(rt.workers), settle: settle,
	}
	var load map[string][]time.Duration
	if b.seq {
		b.cores, load = rt.newCores(), rt.newCores()
	}
	// Plan in admission order; a planning failure settles only its member.
	planned := make([]*member, 0, len(ms))
	for _, m := range ms {
		var err error
		switch {
		case b.seq:
			m.plan, err = rt.scheduleInto(m.job, load)
		case m.plan == nil:
			m.plan, err = rt.sched.Schedule(m.job, rt.topo)
		}
		if err == nil {
			m.ranks, m.order, err = sched.Ranks(m.job)
		}
		if err != nil {
			m.err = fmt.Errorf("core: scheduling %s: %w", m.job.Name(), err)
		} else {
			m.failed, m.err = rt.checkPlan(m.plan, m.order)
		}
		if m.err != nil {
			b.done(m)
			continue
		}
		planned = append(planned, m)
	}
	for i, m := range planned {
		m.pos, m.size = i, len(planned)
	}
	if b.seq {
		b.queue = planned
	} else {
		for _, m := range planned {
			b.start(m)
		}
	}

	p := b.pool
	for {
		// Only this goroutine attaches or detaches members, so it may read
		// p.members without the lock.
		for b.seq && len(b.ready) == 0 && len(p.members) == 0 && len(b.queue) > 0 {
			m := b.queue[0]
			b.queue = b.queue[1:]
			b.start(m)
		}
		if len(b.ready) == 0 && len(p.members) == 0 {
			return
		}
		p.mu.Lock()
		// Grant every new attempt's initial claims before launching, so the
		// pool's (rank, submission) tiebreak sees them all at once.
		for _, w := range b.ready {
			p.attach(w)
			w.advance()
		}
		b.ready = b.ready[:0]
		p.launch()
		drained := p.takeDrained()
		p.mu.Unlock()
		// Finalize outside the pool lock: teardown and checkpoint I/O must
		// not stall the members still running.
		for _, w := range drained {
			b.finish(w)
		}
	}
}

// start makes m's first attempt, unless its probe already canceled it.
func (b *batchExec) start(m *member) {
	if m.cancel != nil {
		if err := m.cancel(); err != nil {
			m.err, m.canceled = err, true
			b.done(m)
			return
		}
	}
	m.attempt = 1
	m.seed = b.epoch.View()
	b.attempt(m, b.cores, 0)
}

// attempt builds m's next run over cores (nil: fresh private clocks) with
// the given base time, and queues its wavefront for attach.
func (b *batchExec) attempt(m *member, cores map[string][]time.Duration, base time.Duration) {
	m.r = b.rt.newRun(m.job, m.plan, b.epoch, m.ns, cores)
	m.r.base = base
	if b.rec != nil {
		// The snapshot namespace is per submission, so same-named jobs in
		// flight never cross-restore or cross-Forget each other's
		// checkpoints.
		m.r.ck, m.r.ckID, m.r.partial = b.rec.Checkpointer, m.ckID, b.rec.PartialReplay
	}
	b.ready = append(b.ready, newWavefront(m))
}

// finish settles a drained attempt, or retries it: the retry inherits the
// failed attempt's rewound core clocks and checkpoints, and backs off on
// the virtual clock. A member whose probe fires after a failure is not
// retried; it fails with its task error.
func (b *batchExec) finish(w *wavefront) {
	m := w.m
	failed, err := w.finalize()
	switch {
	case err == nil:
	case w.canceled != nil:
		m.canceled = true
	case b.rec != nil && m.attempt < b.rec.MaxAttempts && (m.cancel == nil || m.cancel() == nil):
		b.rt.tel.Handle(ctrJobRetries).Add(1)
		wait := backoffWait(b.rec, m.attempt)
		m.waits = append(m.waits, wait)
		m.attempt++
		b.attempt(m, m.r.cores, m.r.base+wait)
		return
	}
	m.failed, m.err = failed, err
	b.done(m)
}

// done settles m.
func (b *batchExec) done(m *member) {
	topology.PutTaskView(m.seed)
	m.seed = nil
	if b.rec != nil && !(m.canceled && m.keepCk) {
		b.rec.Checkpointer.Forget(m.ckID)
	}
	if m.err == nil {
		if rep := m.r.report; m.attempt > 1 || rep.SkippedTasks > 0 {
			// A retry, or a first attempt resuming an external namespace
			// (SubmitOptions.ResumeID): everything not skipped re-executed.
			rep.ReplayedTasks = len(rep.Tasks) - rep.SkippedTasks
		}
	}
	b.settle(m)
}

// newCores builds per-device core clocks (or a load estimate), all zero.
func (rt *Runtime) newCores() map[string][]time.Duration {
	cores := make(map[string][]time.Duration)
	for _, c := range rt.topo.Computes() {
		cores[c.ID] = make([]time.Duration, c.Cores)
	}
	return cores
}

// scheduleInto plans one job against the accumulating load of previously
// admitted jobs, folding the new plan back into load — how the runtime
// packs concurrently submitted jobs across the cluster. A load-aware
// scheduler is used when available.
func (rt *Runtime) scheduleInto(j *dataflow.Job, load map[string][]time.Duration) (*sched.Schedule, error) {
	loadAware, _ := rt.sched.(interface {
		ScheduleLoaded(*dataflow.Job, *topology.Topology, map[string][]time.Duration) (*sched.Schedule, error)
	})
	var schedule *sched.Schedule
	var err error
	if loadAware != nil {
		schedule, err = loadAware.ScheduleLoaded(j, rt.topo, load)
	} else {
		schedule, err = rt.sched.Schedule(j, rt.topo)
	}
	if err != nil {
		return nil, err
	}
	for _, a := range schedule.Assignments {
		cores := load[a.Compute]
		idx := 0
		for i := range cores {
			if cores[i] < cores[idx] {
				idx = i
			}
		}
		if a.Finish > cores[idx] {
			cores[idx] = a.Finish
		}
	}
	return schedule, nil
}
