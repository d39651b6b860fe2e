package sched

// Pre-execution cost estimation. SLO-aware admission (core.SLOPolicy) prices
// every submission before committing a queue slot: the scheduler's makespan
// prediction — the same figure HEFT optimizes — becomes the service-time
// input of the admission queue model, and the critical path is the floor no
// amount of capacity can beat. Keeping the estimator in this package keeps
// the prediction and the plan consistent: whatever cost model the scheduler
// uses to place tasks is the cost model admission judges deadlines with.

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/topology"
)

// Estimate is the scheduler's prediction for one job on an idle testbed.
type Estimate struct {
	// Makespan is the planned completion time of the job's last task — the
	// service-time estimate SLO admission feeds its queue model.
	Makespan time.Duration
	// CriticalPath is the longest dependency chain under mean execution and
	// communication costs — the latency floor regardless of capacity. A
	// deadline below this is infeasible even on an idle machine.
	CriticalPath time.Duration
	// TotalWork is the sum of per-task mean execution times — the capacity
	// the job consumes, which bounds sustainable admission rate.
	TotalWork time.Duration
	// Tasks is the job's task count.
	Tasks int
}

// costModel holds the HEFT cost-model primitives shared by scheduling and
// estimation: the topological order and, indexed by task insertion index,
// each task's eligible compute devices, its mean execution time across
// them, and its upward rank (critical-path length to a sink under mean
// costs).
type costModel struct {
	order    []*dataflow.Task
	eligible [][]int
	meanExec []time.Duration
	rank     []time.Duration
}

// newCostModel validates the job and computes its cost model.
func newCostModel(job *dataflow.Job, topo *topology.Topology) (*costModel, error) {
	order, err := job.ValidOrder()
	if err != nil {
		return nil, err
	}
	n := len(order)
	cm := &costModel{
		order:    order,
		eligible: make([][]int, n),
		meanExec: make([]time.Duration, n),
		rank:     make([]time.Duration, n),
	}
	for _, t := range order {
		devs := eligible(t, topo)
		if len(devs) == 0 {
			return nil, fmt.Errorf("%w: %s wants %s", ErrNoDevice, t.ID(), t.Props().Compute)
		}
		var sum time.Duration
		for _, ci := range devs {
			sum += execTime(t, topo.ComputeAt(ci))
		}
		cm.eligible[t.Index()] = devs
		cm.meanExec[t.Index()] = sum / time.Duration(len(devs))
	}
	// Upward ranks, computed in reverse topological order. Mean
	// communication is a representative cross-device figure.
	for i := n - 1; i >= 0; i-- {
		t := order[i]
		var comm time.Duration
		if b := t.Props().OutputBytes; b > 0 {
			comm = time.Duration(float64(b) / 20e9 * float64(time.Second))
		}
		var max time.Duration
		for _, s := range t.Succs() {
			if v := comm + cm.rank[s.Index()]; v > max {
				max = v
			}
		}
		cm.rank[t.Index()] = cm.meanExec[t.Index()] + max
	}
	return cm, nil
}

// EstimateJob prices a job on an idle topology with scheduler s (nil gives
// HEFT). The returned schedule is the plan the estimate is derived from —
// callers that go on to execute the job can reuse it instead of replanning,
// which is how the serving path keeps SLO admission from doubling the
// scheduling cost of every accepted submission.
func EstimateJob(job *dataflow.Job, topo *topology.Topology, s Scheduler) (Estimate, *Schedule, error) {
	if s == nil {
		s = HEFT{}
	}
	var (
		schedule *Schedule
		cm       *costModel
		err      error
	)
	if h, ok := s.(HEFT); ok {
		schedule, cm, err = h.plan(job, topo, nil) // one cost model serves both
	} else if schedule, err = s.Schedule(job, topo); err == nil {
		cm, err = newCostModel(job, topo)
	}
	if err != nil {
		return Estimate{}, nil, err
	}
	est := Estimate{Makespan: schedule.Makespan, Tasks: len(cm.order)}
	for _, t := range cm.order {
		est.TotalWork += cm.meanExec[t.Index()]
		if r := cm.rank[t.Index()]; r > est.CriticalPath {
			est.CriticalPath = r
		}
	}
	return est, schedule, nil
}
