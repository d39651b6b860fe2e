// Package dataflow implements the application-facing half of the paper's
// programming model (§2.1): applications launch *jobs* made of *tasks*;
// connected tasks form a directed acyclic graph; declarative *properties*
// attach to tasks (compute device preference, confidentiality, persistence,
// memory latency class) and the runtime — not the developer — turns them
// into placement and scheduling decisions.
//
// The package is pure structure: building, validating, and traversing the
// DAG. Execution lives in internal/core, scheduling in internal/sched.
package dataflow

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// DevicePref declares which compute device kind a task wants (Fig. 2's
// "comp. device" property). AnyDevice defers entirely to the scheduler.
type DevicePref uint8

const (
	AnyDevice DevicePref = iota
	OnCPU
	OnGPU
	OnTPU
	OnFPGA
)

// String returns the preference name.
func (p DevicePref) String() string {
	switch p {
	case AnyDevice:
		return "any"
	case OnCPU:
		return "CPU"
	case OnGPU:
		return "GPU"
	case OnTPU:
		return "TPU"
	case OnFPGA:
		return "FPGA"
	default:
		return fmt.Sprintf("DevicePref(%d)", uint8(p))
	}
}

// Kind maps the preference to a topology compute kind; ok is false for
// AnyDevice.
func (p DevicePref) Kind() (topology.ComputeKind, bool) {
	switch p {
	case OnCPU:
		return topology.CPU, true
	case OnGPU:
		return topology.GPU, true
	case OnTPU:
		return topology.TPU, true
	case OnFPGA:
		return topology.FPGA, true
	default:
		return topology.CPU, false
	}
}

// Props are the declarative task properties of Fig. 2c.
type Props struct {
	Compute      DevicePref         // which kind of compute device
	Confidential bool               // data must not be visible to other tasks/jobs
	Persistent   bool               // task state must survive crashes (T5)
	MemLatency   props.LatencyClass // latency demand for the task's scratch
	Ops          float64            // computational work, in scalar operations
	OutputBytes  int64              // bytes this task hands to each successor
}

// Ctx is the execution context internal/core passes to task bodies. It is
// an interface here to keep dataflow free of the runtime dependency.
type Ctx interface {
	// Now returns the task-local virtual clock.
	Now() time.Duration
	// Compute returns the compute device the task was scheduled on.
	Compute() string
	// Charge advances the virtual clock by the time `ops` scalar
	// operations take on the assigned compute device.
	Charge(ops float64)
	// Wait advances the virtual clock to at least t (e.g. after an async
	// Future.Await).
	Wait(t time.Duration)
	// Scratch allocates task-private scratch memory (freed automatically
	// when the task finishes).
	Scratch(name string, size int64) (*region.Handle, error)
	// Output allocates the region this task will hand to its successors
	// (Fig. 4's "Out"). Call at most once; the runtime transfers or shares
	// it after the task returns.
	Output(size int64) (*region.Handle, error)
	// Inputs returns the regions produced by predecessor tasks, in
	// predecessor order. The task owns them and must not use them after
	// returning.
	Inputs() []*region.Handle
	// Global returns (allocating on first use) a job-wide named region of
	// the given class — Global State for synchronization, Global Scratch
	// for cross-task data exchange (Table 2).
	Global(name string, class props.RegionClass, size int64) (*region.Handle, error)
	// Log records a human-readable event into the run report.
	Log(format string, args ...any)
	// Telemetry exposes the cross-layer metrics registry.
	Telemetry() *telemetry.Registry
}

// Fn is a task body.
type Fn func(ctx Ctx) error

// Task is one node of the job DAG.
type Task struct {
	id    string
	idx   int // position in the job's insertion order
	props Props
	fn    Fn
	preds []*Task
	succs []*Task
}

// ID returns the task's identifier.
func (t *Task) ID() string { return t.id }

// Index returns the task's position in its job's insertion order (the
// order of Job.Tasks) — a dense key for per-task slices.
func (t *Task) Index() int { return t.idx }

// Props returns the task's declared properties.
func (t *Task) Props() Props { return t.props }

// Fn returns the task body (nil for structure-only tasks in tests).
func (t *Task) Fn() Fn { return t.fn }

// Preds returns the predecessor tasks in edge-insertion order. The slice
// is the task's own (capped, so appending copies): callers must not modify
// its elements.
func (t *Task) Preds() []*Task { return t.preds[:len(t.preds):len(t.preds)] }

// Succs returns the successor tasks in edge-insertion order, shared like
// Preds.
func (t *Task) Succs() []*Task { return t.succs[:len(t.succs):len(t.succs)] }

// Then connects t → next and returns next, allowing chain syntax:
// preprocess.Then(recognize).Then(track).
func (t *Task) Then(next *Task) *Task {
	t.succs = append(t.succs, next)
	next.preds = append(next.preds, t)
	return next
}

// Job is a named DAG of tasks plus job-level properties.
type Job struct {
	name  string
	tasks map[string]*Task
	order []*Task // insertion order
}

// NewJob creates an empty job.
func NewJob(name string) *Job {
	return &Job{name: name, tasks: make(map[string]*Task)}
}

// Name returns the job name.
func (j *Job) Name() string { return j.name }

// Task adds a task. Duplicate IDs panic: they are programming errors in the
// dataflow definition, not runtime conditions.
func (j *Job) Task(id string, p Props, fn Fn) *Task {
	if id == "" {
		panic("dataflow: empty task id")
	}
	if _, dup := j.tasks[id]; dup {
		panic("dataflow: duplicate task id " + id)
	}
	t := &Task{id: id, idx: len(j.order), props: p, fn: fn}
	j.tasks[id] = t
	j.order = append(j.order, t)
	return t
}

// Get returns a task by ID.
func (j *Job) Get(id string) (*Task, bool) {
	t, ok := j.tasks[id]
	return t, ok
}

// Tasks returns all tasks in insertion order.
func (j *Job) Tasks() []*Task { return append([]*Task(nil), j.order...) }

// Len returns the task count.
func (j *Job) Len() int { return len(j.order) }

// ErrCycle is returned by Validate for cyclic graphs.
var ErrCycle = errors.New("dataflow: job graph has a cycle")

// Validate checks the job is a proper DAG with sane properties.
func (j *Job) Validate() error {
	_, err := j.ValidOrder()
	return err
}

// ValidOrder is Validate and TopoOrder in one pass: the deterministic
// topological order of a job that passes validation.
func (j *Job) ValidOrder() ([]*Task, error) {
	if len(j.order) == 0 {
		return nil, errors.New("dataflow: job has no tasks")
	}
	for _, t := range j.order {
		if t.props.Ops < 0 || t.props.OutputBytes < 0 {
			return nil, fmt.Errorf("dataflow: task %s has negative work", t.id)
		}
	}
	return j.TopoOrder()
}

// TopoOrder returns the tasks in a deterministic topological order
// (Kahn's algorithm; the ready task with the lowest insertion index goes
// first).
func (j *Job) TopoOrder() ([]*Task, error) {
	indeg := make([]int, len(j.order))
	var ready []int // insertion indices
	for i, t := range j.order {
		indeg[i] = len(t.preds)
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	out := make([]*Task, 0, len(j.order))
	for len(ready) > 0 {
		first := 0
		for k := range ready {
			if ready[k] < ready[first] {
				first = k
			}
		}
		t := j.order[ready[first]]
		ready = append(ready[:first], ready[first+1:]...)
		out = append(out, t)
		for _, s := range t.succs {
			if s.idx >= len(j.order) || j.order[s.idx] != s {
				continue // an edge into another job never becomes ready here
			}
			indeg[s.idx]--
			if indeg[s.idx] == 0 {
				ready = append(ready, s.idx)
			}
		}
	}
	if len(out) != len(j.order) {
		return nil, ErrCycle
	}
	return out, nil
}

// Sources returns tasks with no predecessors.
func (j *Job) Sources() []*Task {
	var out []*Task
	for _, t := range j.order {
		if len(t.preds) == 0 {
			out = append(out, t)
		}
	}
	return out
}

// Sinks returns tasks with no successors.
func (j *Job) Sinks() []*Task {
	var out []*Task
	for _, t := range j.order {
		if len(t.succs) == 0 {
			out = append(out, t)
		}
	}
	return out
}

// CriticalPathOps returns the largest sum of Ops along any source→sink path
// — a device-independent lower bound used by scheduler tests.
func (j *Job) CriticalPathOps() (float64, error) {
	order, err := j.TopoOrder()
	if err != nil {
		return 0, err
	}
	best := make(map[*Task]float64, len(order))
	var max float64
	for _, t := range order {
		v := t.props.Ops
		var in float64
		for _, p := range t.preds {
			if best[p] > in {
				in = best[p]
			}
		}
		best[t] = in + v
		if best[t] > max {
			max = best[t]
		}
	}
	return max, nil
}
