package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// taskCtx implements dataflow.Ctx: the window through which a task body
// talks to the RTS. All time is virtual; every region operation both moves
// real bytes and advances the task's clock by the simulated cost.
type taskCtx struct {
	run     *run
	task    *dataflow.Task
	compute *topology.ComputeDevice
	now     time.Duration
	owner   region.Owner

	inputs       []*region.Handle
	scratch      []*region.Handle
	output       *region.Handle
	globalShares map[string]*region.Handle
	regions      map[string]string // label → device (for the report)
	logs         []string

	// view is the task's private causal clock view, the one its
	// allocations and accesses are priced against. rank is the task's
	// deterministic topological rank, fence its rank-order barrier — all
	// three are installed by the dispatcher.
	view  *topology.TaskView
	rank  int
	fence region.Fence
	// events is the task's virtual memory-ledger journal, published to the
	// run on successful completion (wavefront.go); evseq orders same-time
	// entries within the task.
	events []memEvent
	evseq  int
	// ckRestoreCost is the snapshot Put price stashed by checkpointTask;
	// on full completion it becomes the entry's deterministic replay price
	// (Checkpointer.record).
	ckRestoreCost time.Duration
}

// report records the task's span and returns its report: it ran (or was
// restored) from start to the task's current virtual time.
func (c *taskCtx) report(start time.Duration, layer telemetry.Layer, span string) *TaskReport {
	c.run.rt.tel.Record(telemetry.Span{
		Layer: layer, Job: c.run.job.Name(), Task: c.task.ID(),
		Name: span, Start: start, End: c.now,
	})
	return &TaskReport{
		Task: c.task.ID(), Compute: c.compute.ID, Start: start, Finish: c.now,
		Regions: c.regions, Logs: c.logs,
	}
}

// Now implements dataflow.Ctx.
func (c *taskCtx) Now() time.Duration { return c.now }

// Compute implements dataflow.Ctx.
func (c *taskCtx) Compute() string { return c.compute.ID }

// Charge implements dataflow.Ctx: ops scalar operations on this device.
func (c *taskCtx) Charge(ops float64) {
	if ops <= 0 {
		return
	}
	c.now += time.Duration(ops / (c.compute.Gops * 1e9) * float64(time.Second))
}

// Wait implements dataflow.Ctx.
func (c *taskCtx) Wait(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// scratchReq builds the requirements for task-local memory from the task's
// declarative properties. A persistent demand relaxes the latency class to
// at least medium: persistent media are never sub-200ns in Table 1 (the
// paper's Fig. 2 annotations are aspirational; see EXPERIMENTS.md).
func scratchReq(p dataflow.Props) props.Requirements {
	req := props.Requirements{Confidential: p.Confidential}
	if p.MemLatency != props.LatencyAny {
		req.Latency = p.MemLatency
	}
	if p.Persistent {
		req.Persistent = props.Require
		if req.Latency != props.LatencyAny && req.Latency < props.LatencyMedium {
			req.Latency = props.LatencyMedium
		}
	}
	return req
}

// Scratch implements dataflow.Ctx: thread-local Private Scratch (Table 2).
func (c *taskCtx) Scratch(name string, size int64) (*region.Handle, error) {
	req := scratchReq(c.task.Props())
	class := props.PrivateScratch
	if req.Persistent == props.Require {
		// Private Scratch's low-latency class default conflicts with
		// persistent media (Table 1 has no sub-200ns persistent device);
		// honour persistence with an equivalent Custom request at relaxed
		// latency instead of letting the class default re-tighten it.
		class = props.Custom
		req.Latency = props.LatencyMedium
		req.Sync = props.Require
		req.ByteAddr = props.Require
		req.PreferLocal = true
	}
	h, err := c.run.rt.regions.Alloc(region.Spec{
		Name: name, Class: class, Size: size,
		Req: req, Owner: c.owner, Compute: c.compute.ID, Now: c.now,
		Clock: c.view,
	})
	if err != nil {
		return nil, err
	}
	h.Rebind(c.view, c.rank, c.fence)
	c.noteAlloc(h, size)
	c.scratch = append(c.scratch, h)
	c.noteRegion(name, h)
	return h, nil
}

// Output implements dataflow.Ctx: the region handed to successors (Fig. 4).
func (c *taskCtx) Output(size int64) (*region.Handle, error) {
	if c.output != nil {
		return nil, errors.New("core: task already allocated its output")
	}
	class := props.Transfer
	if len(c.task.Succs()) > 1 {
		// Several consumers: the output must be shareable, i.e. Global
		// Scratch (Table 2's "data exchange" region).
		class = props.GlobalScratch
	}
	req := scratchReq(c.task.Props())
	req.Persistent = props.Any // outputs are in-flight data, not task state
	if class == props.GlobalScratch && req.Latency != props.LatencyAny && req.Latency < props.LatencyMedium {
		req.Latency = props.LatencyMedium // coherent+shareable is never sub-200ns here
	}
	h, err := c.run.rt.regions.Alloc(region.Spec{
		Name: c.task.ID() + "/out", Class: class, Size: size,
		Req: req, Owner: c.owner, Compute: c.compute.ID, Now: c.now,
		Clock: c.view,
	})
	if err != nil {
		return nil, err
	}
	h.Rebind(c.view, c.rank, c.fence)
	c.noteAlloc(h, size)
	c.output = h
	c.noteRegion("out", h)
	return h, nil
}

// Inputs implements dataflow.Ctx.
func (c *taskCtx) Inputs() []*region.Handle {
	return append([]*region.Handle(nil), c.inputs...)
}

// Global implements dataflow.Ctx: job-wide named regions, allocated on
// first use with a placement addressable by every scheduled compute device
// (§2.2 challenge (2)), then shared with each requesting task.
func (c *taskCtx) Global(name string, class props.RegionClass, size int64) (*region.Handle, error) {
	if c.globalShares == nil {
		c.globalShares = make(map[string]*region.Handle)
	}
	if h, ok := c.globalShares[name]; ok {
		return h, nil
	}
	c.run.smu.Lock()
	g, ok := c.run.globals[name]
	c.run.smu.Unlock()
	if !ok {
		// First use: fence on rank order so the creating task — whose
		// compute device anchors the placement — is the same task a
		// sequential run would pick, regardless of wall-clock arrival.
		// After the fence every lower rank has completed, so a re-check
		// either finds the global or makes this task its deterministic
		// creator (two concurrent creators are impossible: the higher rank
		// blocks at its fence until the lower one finishes).
		if c.fence != nil {
			// Full barrier (nil deps): any lower rank could be the
			// deterministic creator, so all of them must retire first.
			if err := c.fence(nil); err != nil {
				return nil, err
			}
			c.run.smu.Lock()
			g, ok = c.run.globals[name]
			c.run.smu.Unlock()
		}
	}
	if !ok {
		if !class.Shareable() {
			return nil, fmt.Errorf("core: global %q needs a shareable class, got %s", name, class)
		}
		req, err := props.Merge(class.Defaults(), props.Requirements{Capacity: size})
		if err != nil {
			return nil, err
		}
		// Place for the union of compute devices this job uses.
		if shared, ok := c.run.rt.placer.(interface {
			PlaceShared(props.Requirements, []string) (string, error)
		}); ok {
			computes := c.run.scheduledComputes()
			if dev, err := shared.PlaceShared(req, computes); err == nil {
				h, err := c.run.rt.regions.Alloc(region.Spec{
					Name: name, Class: class, Size: size,
					Owner: region.Owner(c.run.ns), Compute: c.pinCompute(dev),
					Device: dev, Clock: c.view,
				})
				if err == nil {
					g = &globalEntry{handle: h, class: class, shared: map[string]*region.Handle{}}
				}
			}
		}
		if g == nil {
			h, err := c.run.rt.regions.Alloc(region.Spec{
				Name: name, Class: class, Size: size,
				Owner: region.Owner(c.run.ns), Compute: c.compute.ID,
				Clock: c.view,
			})
			if err != nil {
				return nil, err
			}
			g = &globalEntry{handle: h, class: class, shared: map[string]*region.Handle{}}
		}
		c.noteAlloc(g.handle, size)
		c.run.smu.Lock()
		c.run.globals[name] = g
		c.run.smu.Unlock()
		dev, _ := g.handle.DeviceID()
		c.noteDevice(name, dev)
	}
	sh, err := g.handle.Share(c.owner, c.compute.ID)
	if err != nil {
		return nil, fmt.Errorf("core: sharing global %q: %w", name, err)
	}
	// The share inherited the creator's clock view; rebind it to this
	// task's own before any access is priced through it.
	sh.Rebind(c.view, c.rank, c.fence)
	c.noteShare(sh)
	c.globalShares[name] = sh
	c.noteRegion(name, sh)
	return sh, nil
}

// pinCompute finds a compute device that can address dev, preferring the
// task's own; used to steer the global allocation to the co-placed device.
func (c *taskCtx) pinCompute(dev string) string {
	if c.run.rt.topo.Addressable(c.compute.ID, dev) {
		return c.compute.ID
	}
	for _, comp := range c.run.rt.topo.Computes() {
		if c.run.rt.topo.Addressable(comp.ID, dev) {
			return comp.ID
		}
	}
	return c.compute.ID
}

// scheduledComputes lists the distinct compute devices the schedule uses.
func (r *run) scheduledComputes() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range r.schedule.Assignments {
		if !seen[a.Compute] {
			seen[a.Compute] = true
			out = append(out, a.Compute)
		}
	}
	return out
}

// Log implements dataflow.Ctx.
func (c *taskCtx) Log(format string, args ...any) {
	c.logs = append(c.logs, fmt.Sprintf(format, args...))
}

// Telemetry implements dataflow.Ctx.
func (c *taskCtx) Telemetry() *telemetry.Registry { return c.run.rt.tel }

// noteRegion records the placement of a labelled region for the report.
func (c *taskCtx) noteRegion(label string, h *region.Handle) {
	if dev, err := h.DeviceID(); err == nil {
		c.regions[label] = dev
	}
}

func (c *taskCtx) noteDevice(label, dev string) { c.regions[label] = dev }

// releaseScratchAndInputs frees task-lifetime regions after the body ran.
// Only releases that actually dropped a claim are journaled: a handle the
// task already released itself stays live in the ledger until its true last
// release (or run end).
func (c *taskCtx) releaseScratchAndInputs() {
	for _, h := range c.scratch {
		if h.Release() == nil { //nolint:errcheck // may already be released by the task
			c.noteRelease(h)
		}
	}
	c.scratch = nil
	for _, h := range c.inputs {
		if h.Release() == nil { //nolint:errcheck // may already be released by the task
			c.noteRelease(h)
		}
	}
	c.inputs = nil
}

// releaseAll is the failure-path teardown.
func (c *taskCtx) releaseAll() {
	c.releaseScratchAndInputs()
	if c.output != nil {
		c.output.Release() //nolint:errcheck // best-effort teardown
		c.output = nil
	}
	for _, h := range c.globalShares {
		h.Release() //nolint:errcheck // best-effort teardown
	}
	c.globalShares = nil
}

// Compile-time check that taskCtx satisfies the programming-model contract.
var _ dataflow.Ctx = (*taskCtx)(nil)

// BestFitPlacer is re-exported so API users can reference the default
// optimizer without importing internal/placement directly.
type BestFitPlacer = placement.BestFit
