// Package sched implements resource-aware task scheduling — RTS duty (4) of
// §2.3: mapping tasks onto heterogeneous compute devices "using cost models
// that consider topology and access paths". The primary policy is HEFT
// (Heterogeneous Earliest Finish Time): tasks are prioritized by upward
// rank (critical-path length under mean costs) and greedily assigned to the
// device minimizing their earliest finish time, including the cost of
// moving the predecessor's output across the interconnect.
//
// FIFO and round-robin baselines quantify what the cost model buys
// (ablation A2 in DESIGN.md).
package sched

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/dataflow"
	"repro/internal/topology"
)

// Assignment is one task's scheduled placement.
type Assignment struct {
	Task    string
	Compute string
	Start   time.Duration
	Finish  time.Duration
}

// Schedule is a full plan for a job.
type Schedule struct {
	Policy      string
	Assignments map[string]Assignment
	Makespan    time.Duration
}

// Order returns task IDs sorted by scheduled start (ties by ID) — the
// execution order internal/core follows.
func (s *Schedule) Order() []string {
	ids := make([]string, 0, len(s.Assignments))
	for id := range s.Assignments {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		sa, sb := s.Assignments[ids[a]], s.Assignments[ids[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return ids[a] < ids[b]
	})
	return ids
}

// BatchBefore is the deterministic cross-job dispatch order used when a
// serving batch overlaps several jobs on one worker pool: task rank first
// (the within-job sequential order), submission sequence as the tiebreak.
// Wall-clock interleaving between batch members is thereby a pure function
// of the batch — independent of pool size and goroutine scheduling — which
// is the batch-wide counterpart of the per-job rank order.
func BatchBefore(rankA, seqA, rankB, seqB int) bool {
	if rankA != rankB {
		return rankA < rankB
	}
	return seqA < seqB
}

// Scheduler plans a job onto a topology.
type Scheduler interface {
	Schedule(job *dataflow.Job, topo *topology.Topology) (*Schedule, error)
	Name() string
}

// ErrNoDevice is returned when a task's device preference cannot be met.
var ErrNoDevice = errors.New("sched: no compute device satisfies the task's preference")

// eligible returns the dense indices of the compute devices a task may run
// on (precomputed per ComputeKind by the topology).
func eligible(t *dataflow.Task, topo *topology.Topology) []int {
	return topo.ComputeIndices(t.Props().Compute.Kind())
}

// execTime estimates a task's run time on a device from its declared Ops.
func execTime(t *dataflow.Task, c *topology.ComputeDevice) time.Duration {
	if t.Props().Ops <= 0 {
		return time.Microsecond // bookkeeping floor
	}
	sec := t.Props().Ops / (c.Gops * 1e9)
	return time.Duration(sec * float64(time.Second))
}

// commTime estimates moving `bytes` from the producer's device to the
// consumer's (dense compute indices). Same device → free (ownership
// transfer, Fig. 4). Otherwise we price the cheapest path between the two
// compute endpoints.
func commTime(topo *topology.Topology, from, to int, bytes int64) time.Duration {
	if from == to || bytes <= 0 {
		return 0
	}
	p, ok := topo.ComputePath(from, to)
	if !ok {
		return time.Millisecond // effectively discourages the pairing
	}
	xfer := time.Duration(float64(bytes) / p.Bandwidth * float64(time.Second))
	return p.Latency + xfer
}

// cores is every compute device's per-core availability, indexed by dense
// compute index, carved out of one backing slice.
type cores [][]time.Duration

// newCores sizes the core table for topo; initial[device ID] gives per-core
// times before which nothing can start.
func newCores(topo *topology.Topology, initial map[string][]time.Duration) cores {
	n := topo.NumComputes()
	total := 0
	for ci := 0; ci < n; ci++ {
		total += topo.ComputeAt(ci).Cores
	}
	flat := make([]time.Duration, total)
	cs := make(cores, n)
	for ci := 0; ci < n; ci++ {
		c := topo.ComputeAt(ci)
		cs[ci], flat = flat[:c.Cores:c.Cores], flat[c.Cores:]
		if initial != nil {
			copy(cs[ci], initial[c.ID])
		}
	}
	return cs
}

// earliest returns the index and free time of compute ci's first available
// core.
func (cs cores) earliest(ci int) (int, time.Duration) {
	best, bestAt := 0, cs[ci][0]
	for i, at := range cs[ci] {
		if at < bestAt {
			best, bestAt = i, at
		}
	}
	return best, bestAt
}

// placed is the per-task state of a list schedule, indexed by task
// insertion index: where each placed task runs and when it finishes.
type placed struct {
	on     []int
	finish []time.Duration
}

// readyAt is when every predecessor's output has arrived at compute ci.
func (p *placed) readyAt(topo *topology.Topology, preds []*dataflow.Task, ci int) time.Duration {
	var ready time.Duration
	for _, q := range preds {
		arr := p.finish[q.Index()] + commTime(topo, p.on[q.Index()], ci, q.Props().OutputBytes)
		if arr > ready {
			ready = arr
		}
	}
	return ready
}

// HEFT is the cost-model scheduler.
type HEFT struct{}

// Name implements Scheduler.
func (HEFT) Name() string { return "HEFT" }

// Schedule implements Scheduler.
func (h HEFT) Schedule(job *dataflow.Job, topo *topology.Topology) (*Schedule, error) {
	return h.ScheduleLoaded(job, topo, nil)
}

// ScheduleLoaded plans the job onto a machine that is already busy:
// initial[device] gives per-core times before which nothing can start —
// how the runtime packs concurrently submitted jobs across the cluster.
func (h HEFT) ScheduleLoaded(job *dataflow.Job, topo *topology.Topology, initial map[string][]time.Duration) (*Schedule, error) {
	s, _, err := h.plan(job, topo, initial)
	return s, err
}

// plan is ScheduleLoaded returning the cost model it planned with, so
// EstimateJob derives its figures without recomputing the ranks.
func (HEFT) plan(job *dataflow.Job, topo *topology.Topology, initial map[string][]time.Duration) (*Schedule, *costModel, error) {
	cm, err := newCostModel(job, topo)
	if err != nil {
		return nil, nil, err
	}
	order := cm.order
	// Priority: rank descending (ties by topological position for
	// determinism and dependency safety).
	pos := make([]int, len(order))
	for i, t := range order {
		pos[t.Index()] = i
	}
	prio := append([]*dataflow.Task(nil), order...)
	sort.SliceStable(prio, func(a, b int) bool {
		ra, rb := cm.rank[prio[a].Index()], cm.rank[prio[b].Index()]
		if ra != rb {
			return ra > rb
		}
		return pos[prio[a].Index()] < pos[prio[b].Index()]
	})

	cs := newCores(topo, initial)
	pl := placed{on: make([]int, len(order)), finish: make([]time.Duration, len(order))}
	asg := make(map[string]Assignment, len(order))
	var makespan time.Duration
	for _, t := range prio {
		preds := t.Preds()
		bestDev, bestCore := -1, -1
		var bestStart, bestFinish time.Duration
		for _, ci := range cm.eligible[t.Index()] {
			// Ready time: all predecessor outputs delivered to ci.
			start := pl.readyAt(topo, preds, ci)
			core, free := cs.earliest(ci)
			if free > start {
				start = free
			}
			finish := start + execTime(t, topo.ComputeAt(ci))
			if bestDev < 0 || finish < bestFinish {
				bestDev, bestCore, bestStart, bestFinish = ci, core, start, finish
			}
		}
		cs[bestDev][bestCore] = bestFinish
		id := topo.ComputeAt(bestDev).ID
		asg[t.ID()] = Assignment{Task: t.ID(), Compute: id, Start: bestStart, Finish: bestFinish}
		pl.on[t.Index()], pl.finish[t.Index()] = bestDev, bestFinish
		if bestFinish > makespan {
			makespan = bestFinish
		}
	}
	return &Schedule{Policy: "HEFT", Assignments: asg, Makespan: makespan}, cm, nil
}

// FIFO assigns tasks in topological order to the first eligible device kind
// listed by the topology, ignoring cost entirely.
type FIFO struct{}

// Name implements Scheduler.
func (FIFO) Name() string { return "FIFO" }

// Schedule implements Scheduler.
func (FIFO) Schedule(job *dataflow.Job, topo *topology.Topology) (*Schedule, error) {
	return listSchedule(job, topo, "FIFO", func(devs []int, i int) int {
		return devs[0]
	})
}

// RoundRobin cycles through eligible devices without regard to load or
// speed.
type RoundRobin struct{}

// Name implements Scheduler.
func (RoundRobin) Name() string { return "round-robin" }

// Schedule implements Scheduler.
func (RoundRobin) Schedule(job *dataflow.Job, topo *topology.Topology) (*Schedule, error) {
	return listSchedule(job, topo, "round-robin", func(devs []int, i int) int {
		return devs[i%len(devs)]
	})
}

// listSchedule is the shared machinery of the naive baselines: pick chooses
// among the eligible dense compute indices of the i-th task in
// topological order.
func listSchedule(job *dataflow.Job, topo *topology.Topology, policy string, pick func(devs []int, i int) int) (*Schedule, error) {
	order, err := job.ValidOrder()
	if err != nil {
		return nil, err
	}
	cs := newCores(topo, nil)
	pl := placed{on: make([]int, len(order)), finish: make([]time.Duration, len(order))}
	asg := make(map[string]Assignment, len(order))
	var makespan time.Duration
	for i, t := range order {
		devs := eligible(t, topo)
		if len(devs) == 0 {
			return nil, fmt.Errorf("%w: %s wants %s", ErrNoDevice, t.ID(), t.Props().Compute)
		}
		ci := pick(devs, i)
		start := pl.readyAt(topo, t.Preds(), ci)
		core, free := cs.earliest(ci)
		if free > start {
			start = free
		}
		finish := start + execTime(t, topo.ComputeAt(ci))
		cs[ci][core] = finish
		asg[t.ID()] = Assignment{Task: t.ID(), Compute: topo.ComputeAt(ci).ID, Start: start, Finish: finish}
		pl.on[t.Index()], pl.finish[t.Index()] = ci, finish
		if finish > makespan {
			makespan = finish
		}
	}
	return &Schedule{Policy: policy, Assignments: asg, Makespan: makespan}, nil
}

// Validate checks a schedule against the job: every task assigned exactly
// once, precedence respected, and per-core capacity never exceeded.
func Validate(job *dataflow.Job, topo *topology.Topology, s *Schedule) error {
	if len(s.Assignments) != job.Len() {
		return fmt.Errorf("sched: %d assignments for %d tasks", len(s.Assignments), job.Len())
	}
	for _, t := range job.Tasks() {
		a, ok := s.Assignments[t.ID()]
		if !ok {
			return fmt.Errorf("sched: task %s unassigned", t.ID())
		}
		if a.Finish < a.Start {
			return fmt.Errorf("sched: task %s finishes before it starts", t.ID())
		}
		c, ok := topo.Compute(a.Compute)
		if !ok {
			return fmt.Errorf("sched: task %s on unknown device %s", t.ID(), a.Compute)
		}
		if kind, restricted := t.Props().Compute.Kind(); restricted && c.Kind != kind {
			return fmt.Errorf("sched: task %s wants %s, got %s", t.ID(), t.Props().Compute, c.Kind)
		}
		for _, p := range t.Preds() {
			pa := s.Assignments[p.ID()]
			if a.Start < pa.Finish {
				return fmt.Errorf("sched: task %s starts before predecessor %s finishes", t.ID(), p.ID())
			}
		}
	}
	// Capacity: count overlapping tasks per device at each start instant.
	byDev := make(map[string][]Assignment)
	for _, a := range s.Assignments {
		byDev[a.Compute] = append(byDev[a.Compute], a)
	}
	for dev, as := range byDev {
		c, _ := topo.Compute(dev)
		for _, probe := range as {
			overlap := 0
			for _, other := range as {
				if other.Start <= probe.Start && probe.Start < other.Finish {
					overlap++
				}
			}
			if overlap > c.Cores {
				return fmt.Errorf("sched: %s runs %d tasks concurrently with %d cores", dev, overlap, c.Cores)
			}
		}
	}
	return nil
}

// Ranks returns every task's deterministic execution rank — its index in
// the job's topological order (Kahn's algorithm with insertion-index
// tie-breaking, so the result is stable run-to-run). The wavefront executor
// uses the rank as the global tie-breaker wherever two ready tasks contend
// for the same virtual core, which is what keeps parallel dispatch
// byte-for-byte deterministic. The order itself is returned alongside so
// callers don't recompute it.
func Ranks(job *dataflow.Job) (map[string]int, []*dataflow.Task, error) {
	order, err := job.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	ranks := make(map[string]int, len(order))
	for i, t := range order {
		ranks[t.ID()] = i
	}
	return ranks, order, nil
}

// PredCounts returns every task's unmet-predecessor count — the wavefront
// executor's initial ready-set state: tasks with a zero count are
// immediately dispatchable.
func PredCounts(job *dataflow.Job) map[string]int {
	counts := make(map[string]int, len(job.Tasks()))
	for _, t := range job.Tasks() {
		counts[t.ID()] = len(t.Preds())
	}
	return counts
}
