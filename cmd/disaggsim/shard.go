package main

// Sharded serve mode (-serve -shards N): submissions are routed by
// consistent hash across N core.Server shards over the cluster fabric, and
// -crash demonstrates failover — a shard dies mid-stream and its in-flight
// jobs are re-routed to survivors (resuming from checkpoints with
// -recover).

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// shardServeOpts extends serveOpts for the sharded path.
type shardServeOpts struct {
	serveOpts
	shards    int
	crash     int  // shard to crash mid-stream; -1 disables
	migrate   bool // evict cold regions to remote shards' pools while serving
	scheduler sched.Scheduler
	exec      int
	tel       *telemetry.Registry
}

// serveSharded drives a shard.Cluster with the serve-mode workload. Each
// shard owns a private runtime (default testbed topology, best-fit placer),
// so the -placer flag does not apply here. Identical workloads share a
// routing key by design — consistent hashing co-locates them — so pass a
// mix (-jobs hospital,dbms,ml,...) to spread load across shards.
func serveSharded(buildJob func(string) (*dataflow.Job, error), o shardServeOpts) error {
	names := serveJobNames(o.serveOpts)
	jobs := make([]*dataflow.Job, len(names))
	for i, name := range names {
		j, err := buildJob(name)
		if err != nil {
			return err
		}
		jobs[i] = j
	}

	scfg := core.ServerConfig{
		EpochWorkers: o.workers, QueueDepth: o.queueDepth,
		MaxBatch: o.maxBatch, Block: true, Batching: batchMode(o.overlap),
	}
	scfg.Scheduler = o.scheduler
	scfg.Workers = o.exec
	scfg.Inject = o.inject
	scfg.Telemetry = o.tel
	if o.recover {
		scfg.Recovery = &core.RecoveryPolicy{
			MaxAttempts: o.maxAttempts, PartialReplay: o.partialReplay,
		}
	}
	ccfg := repro.ClusterConfig{
		Shards: o.shards, Server: scfg, TrackLoad: true, Migrate: o.migrate,
	}
	if o.migrate {
		// Demo watermark: the built-in workloads never fill a device, so
		// evict cold regions at any utilization to make the remote path
		// visible. Reports stay byte-identical regardless.
		ccfg.Rebalance = repro.RebalancePolicy{EvictWatermark: 1e-9}
	}
	c, err := repro.NewCluster(ccfg)
	if err != nil {
		return err
	}

	// With -migrate, a maintenance goroutine sweeps every shard while jobs
	// are in flight: cold regions are exported to remote shards' pools and
	// recalled on next access. Virtual time never sees the sweeps — the
	// per-job reports below are byte-identical with or without them.
	stopSweeps := make(chan struct{})
	sweepsDone := make(chan struct{})
	if o.migrate {
		go func() {
			defer close(sweepsDone)
			for {
				select {
				case <-stopSweeps:
					return
				default:
				}
				c.Rebalance(0) //nolint:errcheck // best-effort maintenance
				time.Sleep(200 * time.Microsecond)
			}
		}()
	} else {
		close(sweepsDone)
	}

	tickets := make([]*core.Ticket, len(jobs))
	for i, j := range jobs {
		tk, err := c.SubmitAsync(context.Background(), j)
		if err != nil {
			return err
		}
		tickets[i] = tk
		if o.crash >= 0 && o.crash < o.shards && i == len(jobs)/2 {
			if err := c.Crash(o.crash); err != nil {
				return err
			}
			fmt.Printf("crashed shard%d with %d submissions in flight\n", o.crash, i+1)
		}
	}
	var failed int
	for i, tk := range tickets {
		rep, err := tk.Wait(context.Background())
		if err != nil {
			failed++
			fmt.Printf("  %-16s #%-3d FAILED: %v\n", names[i], i, err)
			continue
		}
		line := fmt.Sprintf("  %-16s #%-3d on %-7s makespan %12v", names[i], i, rep.Shard, rep.Makespan)
		if rep.SkippedTasks > 0 {
			line += fmt.Sprintf("  (resumed: %d tasks restored)", rep.SkippedTasks)
		}
		fmt.Println(line)
	}
	close(stopSweeps)
	<-sweepsDone
	stats := c.Stats()
	var mig repro.MigrationStats
	if o.migrate {
		mig = c.MigrationStats()
	}
	if err := c.Close(context.Background()); err != nil {
		return err
	}

	fmt.Printf("served %d jobs across %d shards (%d workers each)\n", len(jobs)-failed, o.shards, o.workers)
	for _, st := range stats {
		state := "up"
		if st.Down {
			state = "DOWN"
		}
		fmt.Printf("  %-7s %-4s submitted=%d admitted=%d rerouted=%d completed=%d est-work=%v fabric: %d verbs, %d bytes\n",
			st.Name, state, st.Submitted, st.Admitted, st.Rerouted, st.Completed,
			time.Duration(st.EstWorkNs), st.Fabric.Verbs, st.Fabric.Bytes)
	}
	if o.migrate {
		fmt.Printf("migration: %d regions exported (%d bytes), %d recalled (%d bytes), %d live remote, verb time %v\n",
			mig.Exported, mig.BytesOut, mig.Recalled, mig.BytesBack, mig.Live, mig.VerbTime)
	}
	return nil
}

// serveJobNames expands -jobs/-job into the submission name list (shared
// with the single-server serve path).
func serveJobNames(o serveOpts) []string {
	var names []string
	if n, err := atoiTrim(o.jobList); err == nil && n > 0 {
		for i := 0; i < n; i++ {
			names = append(names, o.jobName)
		}
	} else if o.jobList != "" {
		names = splitTrim(o.jobList)
	} else {
		for i := 0; i < 8; i++ {
			names = append(names, o.jobName)
		}
	}
	return names
}
