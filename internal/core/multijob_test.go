package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/workload"
)

func dbmsNamed(name string) *dataflow.Job {
	// The workload builders fix the job name; clone the DAG under a new
	// name by rebuilding with distinct configs is overkill — wrap instead.
	j := workload.DBMS(workload.DefaultDBMS())
	renamed := dataflow.NewJob(name)
	clone := map[string]*dataflow.Task{}
	for _, t := range j.Tasks() {
		clone[t.ID()] = renamed.Task(t.ID(), t.Props(), t.Fn())
	}
	for _, t := range j.Tasks() {
		for _, s := range t.Succs() {
			clone[t.ID()].Then(clone[s.ID()])
		}
	}
	return renamed
}

func TestRunAllValidation(t *testing.T) {
	rt := newRuntime(t)
	if _, err := rt.RunAll(nil, MultiConfig{}); err == nil {
		t.Error("empty job list must fail")
	}
	if _, err := rt.RunAll([]*dataflow.Job{nil}, MultiConfig{}); err == nil {
		t.Error("nil job must fail")
	}
	j := workload.HPC(workload.DefaultHPC())
	if _, err := rt.RunAll([]*dataflow.Job{j, j}, MultiConfig{}); err == nil {
		t.Error("duplicate job names must fail")
	}
}

func TestRunAllMixedWorkloads(t *testing.T) {
	rt := newRuntime(t)
	jobs := []*dataflow.Job{
		workload.Hospital(workload.DefaultHospital()),
		workload.DBMS(workload.DefaultDBMS()),
		workload.ML(workload.DefaultML()),
	}
	rep, err := rt.RunAll(jobs, MultiConfig{ComputeStretch: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 3 {
		t.Fatalf("job results = %d", len(rep.Jobs))
	}
	// Concurrency: the combined makespan beats running jobs back to back.
	if rep.Makespan >= rep.SumIsolated {
		t.Errorf("concurrent makespan %v must beat sequential %v", rep.Makespan, rep.SumIsolated)
	}
	// Interference: nobody runs faster concurrently than alone.
	for name, jr := range rep.Jobs {
		if jr.Stretch < 0.99 {
			t.Errorf("%s stretch %.2f < 1 — concurrent run cannot beat isolation", name, jr.Stretch)
		}
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
	s := rep.String()
	if !strings.Contains(s, "hospital") || !strings.Contains(s, "stretch") {
		t.Errorf("summary missing fields:\n%s", s)
	}
}

func TestRunAllSameWorkloadContends(t *testing.T) {
	// 6 copies of the same CPU-heavy query must interfere: combined
	// makespan above any single isolated run.
	rt := newRuntime(t)
	var jobs []*dataflow.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, dbmsNamed(fmt.Sprintf("dbms-%d", i)))
	}
	rep, err := rt.RunAll(jobs, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	solo := newRuntime(t)
	soloRep, err := solo.Run(dbmsNamed("dbms-solo"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan < soloRep.Makespan {
		t.Errorf("6-way concurrent makespan %v cannot beat one isolated run %v", rep.Makespan, soloRep.Makespan)
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
}

func TestRunAllFailureCleansAllJobs(t *testing.T) {
	rt := newRuntime(t)
	boom := errors.New("boom")
	bad := dataflow.NewJob("bad")
	bad.Task("explode", dataflow.Props{Ops: 1e3}, func(ctx dataflow.Ctx) error {
		if _, err := ctx.Scratch("tmp", 4096); err != nil {
			return err
		}
		return boom
	})
	good := workload.HPC(workload.DefaultHPC())
	_, err := rt.RunAll([]*dataflow.Job{good, bad}, MultiConfig{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("failure leaked %d regions", rt.Regions().Live())
	}
}

func TestRunAllDeterministic(t *testing.T) {
	run := func() *MultiReport {
		rt := newRuntime(t)
		jobs := []*dataflow.Job{
			workload.DBMS(workload.DefaultDBMS()),
			workload.StreamWindow(workload.DefaultStream(), 0),
		}
		rep, err := rt.RunAll(jobs, MultiConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Errorf("nondeterministic combined makespan: %v vs %v", a.Makespan, b.Makespan)
	}
	for name, jr := range a.Jobs {
		if b.Jobs[name].Report.Makespan != jr.Report.Makespan {
			t.Errorf("%s makespan differs across runs", name)
		}
	}
}

func BenchmarkRunAllJobMix(b *testing.B) {
	rt, err := New(ExecConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobs := []*dataflow.Job{
			workload.Hospital(workload.DefaultHospital()),
			workload.DBMS(workload.DefaultDBMS()),
			workload.StreamWindow(workload.DefaultStream(), 0),
		}
		if _, err := rt.RunAll(jobs, MultiConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
