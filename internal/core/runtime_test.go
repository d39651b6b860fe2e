package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workload"
)

func newRuntime(t testing.TB) *Runtime {
	t.Helper()
	rt, err := New(ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestDefaultsAreWired(t *testing.T) {
	rt := newRuntime(t)
	if rt.Topology() == nil || rt.Regions() == nil || rt.Telemetry() == nil {
		t.Fatal("defaults must be non-nil")
	}
}

func TestRunRejectsInvalidJobs(t *testing.T) {
	rt := newRuntime(t)
	if _, err := rt.Run(dataflow.NewJob("empty")); err == nil {
		t.Error("empty job must fail")
	}
	j := dataflow.NewJob("cycle")
	a := j.Task("a", dataflow.Props{}, nil)
	b := j.Task("b", dataflow.Props{}, nil)
	a.Then(b)
	b.Then(a)
	if _, err := rt.Run(j); !errors.Is(err, dataflow.ErrCycle) {
		t.Errorf("err = %v, want ErrCycle", err)
	}
}

func TestStructuralJobRuns(t *testing.T) {
	// Tasks without bodies still schedule, charge their Ops, and pass
	// implicit outputs down the chain.
	rt := newRuntime(t)
	j := dataflow.NewJob("structural")
	a := j.Task("a", dataflow.Props{Ops: 1e6, OutputBytes: 1 << 16}, nil)
	b := j.Task("b", dataflow.Props{Ops: 1e6}, nil)
	a.Then(b)
	rep, err := rt.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Error("makespan must be positive")
	}
	if len(rep.Tasks) != 2 {
		t.Errorf("task reports = %d", len(rep.Tasks))
	}
	if rep.Tasks["b"].Start < rep.Tasks["a"].Finish {
		t.Error("b must start after a")
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
}

func TestHospitalEndToEnd(t *testing.T) {
	rt := newRuntime(t)
	job := workload.Hospital(workload.DefaultHospital())
	rep, err := rt.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	// GPU tasks on the GPU (Fig. 2 annotations).
	for _, id := range []string{"preprocess", "face-recognition"} {
		if got := rep.Tasks[id].Compute; got != "node0/gpu0" {
			t.Errorf("%s ran on %s, want GPU", id, got)
		}
	}
	for _, id := range []string{"track-hours", "compute-utilization", "alert-caregivers"} {
		c, _ := rt.Topology().Compute(rep.Tasks[id].Compute)
		if c.Kind != topology.CPU {
			t.Errorf("%s ran on %s, want CPU", id, c.Kind)
		}
	}
	// The persistent missing-patient ledger must be on persistent media.
	ledger := rep.Tasks["alert-caregivers"].Regions["missing-patients"]
	dev, ok := rt.Topology().Memory(ledger)
	if !ok || !dev.Persistent {
		t.Errorf("missing-patient ledger on %q, want persistent device", ledger)
	}
	// GPU scratch must be GPU-local (Fig. 3): the preprocess frame buffer.
	if got := rep.Tasks["preprocess"].Regions["framebuf"]; got != "node0/gddr0" {
		t.Errorf("GPU frame buffer on %s, want GDDR", got)
	}
	// All three sinks ran; utilization produced a final output.
	if _, ok := rep.FinalOutputs["compute-utilization"]; !ok {
		t.Error("utilization output missing")
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
	// Logs made it into the report.
	found := false
	for _, l := range rep.Tasks["alert-caregivers"].Logs {
		if strings.Contains(l, "alerted caregivers") {
			found = true
		}
	}
	if !found {
		t.Error("alert log missing from report")
	}
}

func TestDBMSEndToEnd(t *testing.T) {
	rt := newRuntime(t)
	rep, err := rt.Run(workload.DBMS(workload.DefaultDBMS()))
	if err != nil {
		t.Fatal(err)
	}
	// The join must have found matches via the re-used hash index.
	var joined string
	for _, l := range rep.Tasks["hash-join"].Logs {
		if strings.Contains(l, "join matched") {
			joined = l
		}
	}
	if joined == "" || strings.Contains(joined, "matched 0 ") {
		t.Errorf("join produced no matches: %q", joined)
	}
	// The agg index went to a shared (coherent) device.
	idxDev := rep.Tasks["hash-aggregate"].Regions["agg-index"]
	if idxDev == "" {
		t.Fatal("agg-index placement not recorded")
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
}

func TestMLEndToEnd(t *testing.T) {
	rt := newRuntime(t)
	rep, err := rt.Run(workload.ML(workload.DefaultML()))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Tasks["train"].Compute; got != "node0/tpu0" {
		t.Errorf("training on %s, want TPU", got)
	}
	if _, ok := rep.FinalOutputs["train"]; !ok {
		t.Error("trained weights must be a final output")
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
}

func TestHPCAndStreamingEndToEnd(t *testing.T) {
	rt := newRuntime(t)
	for _, job := range []*dataflow.Job{
		workload.HPC(workload.DefaultHPC()),
		workload.StreamWindow(workload.DefaultStream(), 0),
	} {
		rep, err := rt.Run(job)
		if err != nil {
			t.Fatalf("%s: %v", job.Name(), err)
		}
		if rep.Makespan <= 0 {
			t.Errorf("%s: zero makespan", job.Name())
		}
		if rt.Regions().Live() != 0 {
			t.Errorf("%s: leaked %d regions", job.Name(), rt.Regions().Live())
		}
	}
}

func TestFanOutSharesOutput(t *testing.T) {
	// One producer, three consumers: the output must be shared (Global
	// Scratch), each consumer sees the same bytes, and nothing leaks.
	rt := newRuntime(t)
	j := dataflow.NewJob("fanout")
	payload := []byte("shared exactly once")
	src := j.Task("src", dataflow.Props{Ops: 1e3}, func(ctx dataflow.Ctx) error {
		out, err := ctx.Output(64)
		if err != nil {
			return err
		}
		f := out.WriteAsync(ctx.Now(), 0, payload)
		now, err := f.Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		return nil
	})
	mk := func(name string) *dataflow.Task {
		return j.Task(name, dataflow.Props{Ops: 1e3}, func(ctx dataflow.Ctx) error {
			in := ctx.Inputs()[0]
			got := make([]byte, len(payload))
			f := in.ReadAsync(ctx.Now(), 0, got)
			now, err := f.Await(ctx.Now())
			if err != nil {
				return err
			}
			ctx.Wait(now)
			if string(got) != string(payload) {
				return errors.New("consumer saw wrong bytes")
			}
			return nil
		})
	}
	for _, name := range []string{"c1", "c2", "c3"} {
		src.Then(mk(name))
	}
	if _, err := rt.Run(j); err != nil {
		t.Fatal(err)
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
}

func TestTaskFailureCleansUp(t *testing.T) {
	rt := newRuntime(t)
	j := dataflow.NewJob("failing")
	boom := errors.New("boom")
	a := j.Task("a", dataflow.Props{Ops: 1e3, OutputBytes: 1 << 12}, nil)
	b := j.Task("b", dataflow.Props{Ops: 1e3}, func(ctx dataflow.Ctx) error {
		if _, err := ctx.Scratch("tmp", 4096); err != nil {
			return err
		}
		return boom
	})
	a.Then(b)
	_, err := rt.Run(j)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !strings.Contains(err.Error(), "task b") {
		t.Errorf("error must name the failing task: %v", err)
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("failure leaked %d regions", rt.Regions().Live())
	}
}

func TestGlobalRequiresShareableClass(t *testing.T) {
	rt := newRuntime(t)
	j := dataflow.NewJob("bad-global")
	j.Task("t", dataflow.Props{Ops: 1}, func(ctx dataflow.Ctx) error {
		_, err := ctx.Global("x", props.PrivateScratch, 64)
		return err
	})
	if _, err := rt.Run(j); err == nil {
		t.Error("private-scratch global must fail")
	}
	if rt.Regions().Live() != 0 {
		t.Error("leak after failed global")
	}
}

func TestSchedulerChoiceAffectsMakespan(t *testing.T) {
	mkJob := func() *dataflow.Job {
		j := dataflow.NewJob("mix")
		src := j.Task("src", dataflow.Props{Ops: 1e5, OutputBytes: 4096}, nil)
		sink := j.Task("sink", dataflow.Props{Ops: 1e5}, nil)
		for i := 0; i < 16; i++ {
			t := j.Task(string(rune('A'+i)), dataflow.Props{Ops: 5e8, OutputBytes: 4096}, nil)
			src.Then(t)
			t.Then(sink)
		}
		return j
	}
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		t.Fatal(err)
	}
	heftRT, err := New(ExecConfig{Topology: topo, Scheduler: sched.HEFT{}})
	if err != nil {
		t.Fatal(err)
	}
	heftRep, err := heftRT.Run(mkJob())
	if err != nil {
		t.Fatal(err)
	}
	topo2, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		t.Fatal(err)
	}
	fifoRT, err := New(ExecConfig{Topology: topo2, Scheduler: sched.FIFO{}})
	if err != nil {
		t.Fatal(err)
	}
	fifoRep, err := fifoRT.Run(mkJob())
	if err != nil {
		t.Fatal(err)
	}
	if heftRep.Makespan >= fifoRep.Makespan {
		t.Errorf("HEFT (%v) must beat FIFO (%v)", heftRep.Makespan, fifoRep.Makespan)
	}
}

func TestPlacerChoiceAffectsPlacement(t *testing.T) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(ExecConfig{Topology: topo, Placer: placement.NewWorst(topo)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(workload.HPC(workload.DefaultHPC()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Placer != "worst-fit" {
		t.Errorf("report placer = %s", rep.Placer)
	}
}

func TestReportRendering(t *testing.T) {
	rt := newRuntime(t)
	rep, err := rt.Run(workload.Hospital(workload.DefaultHospital()))
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"hospital", "face-recognition", "region", "HEFT"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
	if len(rep.PeakDeviceBytes) == 0 {
		t.Error("peak device bytes must be sampled")
	}
}

func TestRepeatedRunsAreIsolated(t *testing.T) {
	rt := newRuntime(t)
	job := workload.DefaultDBMS()
	r1, err := rt.Run(workload.DBMS(job))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rt.Run(workload.DBMS(job))
	if err != nil {
		t.Fatal(err)
	}
	// Same job twice: same placements (devices drained between runs).
	for id, t1 := range r1.Tasks {
		if r2.Tasks[id].Compute != t1.Compute {
			t.Errorf("%s moved between runs: %s → %s", id, t1.Compute, r2.Tasks[id].Compute)
		}
	}
	if rt.Regions().Live() != 0 {
		t.Error("second run leaked regions")
	}
}

func BenchmarkHospitalRun(b *testing.B) {
	rt := newRuntime(b)
	cfg := workload.DefaultHospital()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run(workload.Hospital(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBMSRun(b *testing.B) {
	rt := newRuntime(b)
	cfg := workload.DefaultDBMS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run(workload.DBMS(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReportStringDeterministicOnTies(t *testing.T) {
	// Two tasks with identical Start times: map iteration order must not
	// leak into the rendering — ties break on task ID.
	rep := &Report{
		Job: "tie", Scheduler: "heft", Placer: "best-fit", Makespan: 10,
		Tasks: map[string]*TaskReport{
			"zeta":  {Task: "zeta", Compute: "node0/cpu0", Start: 0, Finish: 5},
			"alpha": {Task: "alpha", Compute: "node0/cpu0", Start: 0, Finish: 7},
			"mid":   {Task: "mid", Compute: "node0/gpu0", Start: 3, Finish: 9},
		},
	}
	first := rep.String()
	for i := 0; i < 50; i++ {
		if got := rep.String(); got != first {
			t.Fatalf("rendering varies between calls:\n%s\nvs\n%s", first, got)
		}
	}
	ia, iz, im := strings.Index(first, "alpha"), strings.Index(first, "zeta"), strings.Index(first, "mid")
	if ia < 0 || iz < 0 || im < 0 {
		t.Fatalf("missing tasks in rendering:\n%s", first)
	}
	if !(ia < iz && iz < im) {
		t.Errorf("order must be alpha < zeta (ID tie-break) < mid (later start):\n%s", first)
	}
}

func TestGlobalShareReleaseFailureDoesNotLeak(t *testing.T) {
	// A task that releases its own global shares makes the runtime's
	// end-of-task release fail. Every share must still be walked (no leaks),
	// all failures aggregated, and the task recorded as executed.
	rt := newRuntime(t)
	j := dataflow.NewJob("self-release")
	j.Task("t", dataflow.Props{Ops: 1e3}, func(ctx dataflow.Ctx) error {
		ha, err := ctx.Global("alpha", props.GlobalScratch, 1<<16)
		if err != nil {
			return err
		}
		hb, err := ctx.Global("beta", props.GlobalScratch, 1<<16)
		if err != nil {
			return err
		}
		// Misbehaving body: drops the runtime-managed shares itself.
		if err := ha.Release(); err != nil {
			return err
		}
		return hb.Release()
	})
	_, err := rt.Run(j)
	if err == nil {
		t.Fatal("expected aggregated release errors")
	}
	if !strings.Contains(err.Error(), "releasing global alpha") ||
		!strings.Contains(err.Error(), "releasing global beta") {
		t.Errorf("error must name both failed releases, got: %v", err)
	}
	if !errors.Is(err, region.ErrNotOwner) {
		t.Errorf("error must wrap region.ErrNotOwner, got: %v", err)
	}
	if live := rt.Regions().Live(); live != 0 {
		t.Errorf("leaked %d regions", live)
	}
	// The task itself ran to completion and must have been recorded.
	execSpans := 0
	for _, sp := range rt.Telemetry().Spans() {
		if sp.Name == "exec" && sp.Task == "t" {
			execSpans++
		}
	}
	if execSpans != 1 {
		t.Errorf("exec spans for t = %d, want 1", execSpans)
	}
}
