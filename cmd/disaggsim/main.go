// Command disaggsim runs one of the built-in dataflow workloads on the
// simulated disaggregated testbed and prints the runtime's report:
// where every task was scheduled, which physical device every Memory
// Region landed on, the virtual makespan, and the cross-layer profile.
//
// Usage:
//
//	disaggsim -job hospital
//	disaggsim -job dbms -scheduler fifo -placer worst
//	disaggsim -job ml -profile
//	disaggsim -jobs hospital,dbms,streaming     # concurrent multi-job serving
//	disaggsim -serve -jobs 32 -workers 8        # admission-controlled serving
//	disaggsim -serve -jobs hospital,dbms,ml     # serve an explicit job mix
//	disaggsim -serve -jobs 16 -faultrate 0.5 -recover   # fault-tolerant serving
//	disaggsim -serve -shards 2 -jobs hospital,dbms,ml,graph   # sharded serving
//	disaggsim -serve -shards 2 -migrate         # + cross-shard region migration
//	disaggsim -serve -shards 3 -crash 1 -recover        # failover re-route demo
//	disaggsim -stream -windows 8                # windowed streaming dataflow
//	disaggsim -stream -windows 8 -crashwindow 3 -recover  # resume a cut stream
//
// Jobs: hospital, dbms, ml, hpc, streaming, graph.
// Schedulers: heft (default), fifo, rr.
// Placers: best (default), first, worst, random.
//
// With -serve, the listed jobs (or N copies of -job when -jobs is a plain
// number) are submitted from parallel goroutines through core.Server's
// bounded admission queue and executed by a worker pool that batches them
// into shared virtual-time epochs.
//
// With -serve -shards N, submissions are consistent-hashed across N server
// shards over the cluster fabric; -crash K kills shard K mid-stream to
// demonstrate failover, and -migrate runs maintenance sweeps that evict
// cold Memory Regions into remote shards' memory pools (recalled on next
// access — reports stay byte-identical to solo runs either way).
//
// With -stream, the streaming workload is served window by window through
// Server.SubmitStream; -crashwindow W (with -recover) cancels the stream
// after W retired windows and resumes it from the checkpoint store.
//
// -faultrate injects deterministic task faults (seeded by -seed) into that
// fraction of task executions; each chosen task fails once and then
// succeeds. Without -recover the failures surface to the submitters; with
// -recover every job checkpoints task outputs into a replicated far-memory
// store and is retried (-maxattempts) with checkpointed tasks restored
// instead of re-executed. Adding -partialreplay keeps retries byte-identical
// in virtual time but restores checkpoint payloads lazily — only snapshots a
// re-executed task actually reads come back from the store.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/placement"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		fatal(err)
	}

	var placer region.Placer
	switch o.placer {
	case "best":
		placer = placement.NewBestFit(topo)
	case "first":
		placer = region.FirstFit{Topo: topo}
	case "worst":
		placer = placement.NewWorst(topo)
	case "random":
		placer = placement.NewRandom(topo, o.seed)
	default:
		fatal(fmt.Errorf("unknown placer %q", o.placer))
	}

	var scheduler sched.Scheduler
	switch o.scheduler {
	case "heft":
		scheduler = sched.HEFT{}
	case "fifo":
		scheduler = sched.FIFO{}
	case "rr":
		scheduler = sched.RoundRobin{}
	default:
		fatal(fmt.Errorf("unknown scheduler %q", o.scheduler))
	}

	buildJob := func(name string) (*dataflow.Job, error) {
		switch name {
		case "hospital":
			return workload.Hospital(workload.DefaultHospital()), nil
		case "dbms":
			return workload.DBMS(workload.DefaultDBMS()), nil
		case "ml":
			return workload.ML(workload.DefaultML()), nil
		case "hpc":
			return workload.HPC(workload.DefaultHPC()), nil
		case "streaming":
			return workload.StreamWindow(workload.DefaultStream(), 0), nil
		case "graph":
			return workload.Graph(workload.DefaultGraph()), nil
		default:
			return nil, fmt.Errorf("unknown job %q", name)
		}
	}

	tel := telemetry.NewRegistry()
	var inject *fault.Injector
	if o.faultRate > 0 {
		inject = fault.NewInjector(uint64(o.seed), o.faultRate, 1)
	}
	rt, err := core.New(core.ExecConfig{
		Topology: topo, Placer: placer, Scheduler: scheduler, Telemetry: tel,
		Inject: inject, Workers: o.execWorkers,
	})
	if err != nil {
		fatal(err)
	}

	if o.stream {
		if err := serveStream(rt, tel, streamOpts{
			windows: o.windows, workers: o.workers,
			queueDepth: o.queue, maxBatch: o.batch,
			crashWindow: o.crashWindow, recover: o.recover,
			partialReplay: o.partialReplay, maxAttempts: o.maxAttempts,
		}); err != nil {
			fatal(err)
		}
		if o.profile {
			fmt.Println()
			fmt.Print(tel.Report())
		}
		writeTrace(tel, o.trace)
		return
	}

	if o.serve && o.shards > 1 {
		if err := serveSharded(buildJob, shardServeOpts{
			serveOpts: serveOpts{
				jobName: o.job, jobList: o.jobs,
				workers: o.workers, queueDepth: o.queue, maxBatch: o.batch,
				overlap: o.overlap,
				recover: o.recover, partialReplay: o.partialReplay,
				maxAttempts: o.maxAttempts, inject: inject,
			},
			shards: o.shards, crash: o.crash, migrate: o.migrate,
			scheduler: scheduler, exec: o.execWorkers, tel: tel,
		}); err != nil {
			fatal(err)
		}
		if o.profile {
			fmt.Println()
			fmt.Print(tel.Report())
		}
		writeTrace(tel, o.trace)
		return
	}

	if o.serve {
		if err := serveJobs(rt, tel, buildJob, serveOpts{
			jobName: o.job, jobList: o.jobs,
			workers: o.workers, queueDepth: o.queue, maxBatch: o.batch,
			overlap: o.overlap,
			recover: o.recover, partialReplay: o.partialReplay,
			maxAttempts: o.maxAttempts, inject: inject,
		}); err != nil {
			fatal(err)
		}
		if o.profile {
			fmt.Println()
			fmt.Print(tel.Report())
		}
		writeTrace(tel, o.trace)
		return
	}

	if o.jobs != "" {
		var jobs []*dataflow.Job
		for _, name := range strings.Split(o.jobs, ",") {
			j, err := buildJob(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			jobs = append(jobs, j)
		}
		rep, err := rt.RunAll(jobs, core.MultiConfig{ComputeStretch: true})
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.String())
		fmt.Printf("sequential baseline: %v (concurrency saves %.1f%%)\n",
			rep.SumIsolated, 100*(1-float64(rep.Makespan)/float64(rep.SumIsolated)))
		if o.profile {
			fmt.Println()
			fmt.Print(tel.Report())
		}
		writeTrace(tel, o.trace)
		return
	}

	var job *dataflow.Job
	switch o.job {
	case "hospital":
		job = workload.Hospital(workload.DefaultHospital())
	case "dbms":
		job = workload.DBMS(workload.DefaultDBMS())
	case "ml":
		job = workload.ML(workload.DefaultML())
	case "hpc":
		job = workload.HPC(workload.DefaultHPC())
	case "streaming":
		job = workload.StreamWindow(workload.DefaultStream(), 0)
	case "graph":
		job = workload.Graph(workload.DefaultGraph())
	default:
		fatal(fmt.Errorf("unknown job %q", o.job))
	}

	var rep *core.Report
	if o.recover {
		store, err := newCheckpointStore()
		if err != nil {
			fatal(err)
		}
		run := rt.RunWithRecovery
		if o.partialReplay {
			run = rt.RunWithPartialReplay
		}
		var attempts int
		rep, attempts, err = run(job, core.NewCheckpointer(store), o.maxAttempts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("recovered run: %d attempt(s), %d restore(s), %d task(s) skipped, %d replayed, %d bytes restored\n",
			attempts, tel.Counter(telemetry.LayerFault, "restores"),
			rep.SkippedTasks, rep.ReplayedTasks,
			tel.Counter(telemetry.LayerFault, "restored_bytes"))
	} else {
		rep, err = rt.Run(job)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Print(rep.String())
	fmt.Println("\npeak device allocation:")
	for _, m := range topo.Memories() {
		if b, ok := rep.PeakDeviceBytes[m.ID]; ok && b > 0 {
			fmt.Printf("  %-18s %d bytes\n", m.ID, b)
		}
	}
	if o.profile {
		fmt.Println()
		fmt.Print(tel.Report())
	}
	writeTrace(tel, o.trace)
}

// serveOpts bundles the serve-mode flags.
type serveOpts struct {
	jobName, jobList              string
	workers, queueDepth, maxBatch int
	overlap                       bool
	recover                       bool
	partialReplay                 bool
	maxAttempts                   int
	inject                        *fault.Injector
}

// batchMode maps the -overlap flag onto the server's batch mode.
func batchMode(overlap bool) core.BatchMode {
	if overlap {
		return core.BatchOverlapped
	}
	return core.BatchSequential
}

// newCheckpointStore builds the CLI's checkpoint store: a 2-way replicated
// far-memory store over a private 3-node fabric.
func newCheckpointStore() (fault.Store, error) {
	f := cluster.NewFabric(cluster.Config{})
	for i := 0; i < 3; i++ {
		if err := f.AddNode(fmt.Sprintf("ckmem%d", i), 1<<28); err != nil {
			return nil, err
		}
	}
	return fault.NewReplicatedStore(f, 2)
}

// serveJobs drives core.Server from parallel goroutines: -jobs is either a
// plain number (that many copies of -job) or a comma-separated mix.
func serveJobs(rt *core.Runtime, tel *telemetry.Registry, buildJob func(string) (*dataflow.Job, error), o serveOpts) error {
	names := serveJobNames(o)
	jobs := make([]*dataflow.Job, len(names))
	for i, name := range names {
		j, err := buildJob(name)
		if err != nil {
			return err
		}
		jobs[i] = j
	}

	cfg := core.ServerConfig{
		Runtime: rt, EpochWorkers: o.workers, QueueDepth: o.queueDepth,
		MaxBatch: o.maxBatch, Block: true, Batching: batchMode(o.overlap),
	}
	if o.recover {
		store, err := newCheckpointStore()
		if err != nil {
			return err
		}
		cfg.Recovery = &core.RecoveryPolicy{
			Store: store, MaxAttempts: o.maxAttempts,
			PartialReplay: o.partialReplay,
		}
	}
	srv, err := core.NewServer(cfg)
	if err != nil {
		return err
	}
	// Async submission: enqueue every job up front via the ticket API, then
	// collect outcomes — no per-submission goroutine needed.
	tickets := make([]*core.Ticket, len(jobs))
	for i, j := range jobs {
		tk, err := srv.SubmitAsync(context.Background(), j)
		if err != nil {
			return err
		}
		tickets[i] = tk
	}
	type outcome struct {
		rep *core.Report
		err error
	}
	results := make([]outcome, len(jobs))
	for i, tk := range tickets {
		rep, err := tk.Wait(context.Background())
		results[i] = outcome{rep, err}
	}
	if err := srv.Close(context.Background()); err != nil {
		return err
	}

	mode := "overlapped"
	if !o.overlap {
		mode = "sequential"
	}
	fmt.Printf("served %d jobs across %d workers (queue %d, batch %d, %s batches)\n",
		len(jobs), o.workers, o.queueDepth, o.maxBatch, mode)
	for i, out := range results {
		if out.err != nil {
			fmt.Printf("  %-16s #%-3d FAILED: %v\n", names[i], i, out.err)
			continue
		}
		line := fmt.Sprintf("  %-16s #%-3d makespan %12v", names[i], i, out.rep.Makespan)
		if out.rep.Attempts > 1 {
			line += fmt.Sprintf("  (recovered, %d attempts)", out.rep.Attempts)
		}
		fmt.Println(line)
	}
	fmt.Printf("admission: admitted %d, completed %d, rejected %d, canceled %d, failed %d, epochs %d\n",
		tel.Counter(telemetry.LayerRuntime, "server_admitted"),
		tel.Counter(telemetry.LayerRuntime, "server_completed"),
		tel.Counter(telemetry.LayerRuntime, "server_rejected"),
		tel.Counter(telemetry.LayerRuntime, "server_canceled"),
		tel.Counter(telemetry.LayerRuntime, "server_failed"),
		tel.Counter(telemetry.LayerRuntime, "server_epochs"))
	if h := tel.Hist(telemetry.LayerRuntime, "server_queue_wait"); h != nil {
		fmt.Printf("queue wait: p50 %v, p99 %v, max %v (n=%d)\n",
			h.Quantile(0.50), h.Quantile(0.99), h.Max(), h.Count())
	}
	if o.inject != nil || o.recover {
		fmt.Printf("faults: injected %d; recovery: retries %d, checkpoints %d, restores %d, recovered jobs %d\n",
			o.inject.Injected(),
			tel.Counter(telemetry.LayerFault, "job_retries"),
			tel.Counter(telemetry.LayerFault, "checkpoints"),
			tel.Counter(telemetry.LayerFault, "restores"),
			tel.Counter(telemetry.LayerRuntime, "server_recovered"))
		fmt.Printf("restore I/O: %d bytes fetched, %d lazy hydration(s)\n",
			tel.Counter(telemetry.LayerFault, "restored_bytes"),
			tel.Counter(telemetry.LayerFault, "lazy_hydrations"))
	}
	return nil
}

func writeTrace(tel *telemetry.Registry, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := tel.ExportChromeTrace(f); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disaggsim:", err)
	os.Exit(1)
}

func atoiTrim(s string) (int, error) { return strconv.Atoi(strings.TrimSpace(s)) }

func splitTrim(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(part))
	}
	return out
}
