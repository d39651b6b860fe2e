package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/dataflow"
)

// This file adds concurrent multi-job execution — the deployment shape the
// paper targets ("dataflow systems that serve thousands of jobs in parallel
// on such complex hardware landscapes", §2.1) and the reason the RTS must
// "optimize for concurrently running jobs" (§3, challenges 1-3).
//
// Jobs are scheduled independently (each gets its own HEFT plan) but
// *execute* against shared compute cores and shared memory devices: core
// slots serialize tasks, device service queues serialize transfers, and
// the placement optimizer sees the other jobs' allocations through device
// free-capacity. Contention is therefore emergent, not modeled.
//
// RunAll is the *virtual-contention* multi-job mode, a BatchSequential
// batch of the executor (exec.go): members run job-after-job, each queueing
// behind the backlog its predecessors absorbed into the shared epoch, so
// interference (stretch) is observable in the reports. The Server's default
// batch mode makes the opposite trade — overlapped wall-clock execution
// with virtual isolation per member (see server.go).

// JobResult pairs a job's report with isolation diagnostics.
type JobResult struct {
	Report *Report
	// Stretch is this job's concurrent makespan divided by its makespan
	// when run alone on an identical testbed — the interference factor.
	// Only set when ComputeStretch was requested.
	Stretch float64
}

// MultiReport is the outcome of RunAll.
type MultiReport struct {
	Jobs map[string]*JobResult
	// Makespan is the finish time of the last task across all jobs.
	Makespan time.Duration
	// SumIsolated is the sum of isolated makespans (sequential baseline);
	// only set when ComputeStretch was requested.
	SumIsolated time.Duration
}

// String renders a per-job summary.
func (m *MultiReport) String() string {
	names := make([]string, 0, len(m.Jobs))
	for n := range m.Jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := fmt.Sprintf("%d jobs, combined makespan %v\n", len(m.Jobs), m.Makespan)
	for _, n := range names {
		jr := m.Jobs[n]
		out += fmt.Sprintf("  %-16s makespan %12v", n, jr.Report.Makespan)
		if jr.Stretch > 0 {
			out += fmt.Sprintf("  stretch %.2f×", jr.Stretch)
		}
		out += "\n"
	}
	return out
}

// MultiConfig tunes RunAll.
type MultiConfig struct {
	// ComputeStretch additionally runs every job alone on a fresh default
	// testbed to report per-job interference factors. Costs one extra run
	// per job.
	ComputeStretch bool
}

// RunAll executes several jobs concurrently on this runtime's shared
// topology. Job names must be unique (they namespace region owners and
// job-level globals).
func (rt *Runtime) RunAll(jobs []*dataflow.Job, cfg MultiConfig) (*MultiReport, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("core: no jobs")
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if j == nil {
			return nil, fmt.Errorf("core: nil job")
		}
		if seen[j.Name()] {
			return nil, fmt.Errorf("core: duplicate job name %q", j.Name())
		}
		seen[j.Name()] = true
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("core: job %s: %w", j.Name(), err)
		}
	}

	// One sequential batch: a fresh epoch private to this call, shared core
	// clocks, plans packed against the accumulating load, and jobs run in
	// admission order. RunAll is fail-fast: after the first failure every
	// later member's probe cancels it before it starts. (No member is live
	// when settle records a failure, so the probe reads firstErr safely.)
	var firstErr error
	stop := func() error { return firstErr }
	ms := make([]*member, len(jobs))
	for i, j := range jobs {
		ms[i] = &member{job: j, ns: j.Name(), cancel: stop}
	}
	out := &MultiReport{Jobs: make(map[string]*JobResult, len(jobs))}
	rt.execBatch(ms, BatchSequential, nil, func(m *member) {
		switch {
		case m.canceled: // stopped by an earlier failure
		case m.err != nil:
			firstErr = m.taskErr()
		default:
			out.Jobs[m.job.Name()] = &JobResult{Report: m.r.report}
			out.Makespan = max(out.Makespan, m.r.report.Makespan)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}

	if cfg.ComputeStretch {
		for _, j := range jobs {
			iso, err := New(ExecConfig{Scheduler: rt.sched})
			if err != nil {
				return nil, err
			}
			rep, err := iso.Run(j)
			if err != nil {
				return nil, fmt.Errorf("core: isolated baseline for %s: %w", j.Name(), err)
			}
			out.SumIsolated += rep.Makespan
			if rep.Makespan > 0 {
				out.Jobs[j.Name()].Stretch = float64(out.Jobs[j.Name()].Report.Makespan) / float64(rep.Makespan)
			}
		}
	}
	return out, nil
}
