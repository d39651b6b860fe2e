package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// span is one timed call into a layer, recorded from the benchmark side.
// Spans of one submission share ID; Parent is the index of the span that
// caused this one (-1 for none).
type span struct {
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(name string, id uint64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	s := span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// write dumps the spans as JSON lines after a header line holding the
// host fingerprint.
func (t *tracer) write(path string, h host) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"host": h}); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// submitP50 is the median duration of the submit spans (SubmitAsync or
// SubmitStream returning), in µs.
func (t *tracer) submitP50() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var us []float64
	for _, s := range t.spans {
		if s.Name == "submit" {
			us = append(us, float64(s.End-s.Start)/1e3)
		}
	}
	return quantile(us, 0.5)
}

// settleGapP99 is the p99 wall gap between consecutive deliveries (ticket
// settles, or window retirements of one stream), in ms.
func (t *tracer) settleGapP99() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ends := map[uint64][]int64{} // stream (or 0) → delivery times
	for _, s := range t.spans {
		switch s.Name {
		case "settle":
			ends[0] = append(ends[0], s.End)
		case "retire":
			ends[s.ID>>32] = append(ends[s.ID>>32], s.End)
		}
	}
	var gaps []float64
	for _, e := range ends {
		sort.Slice(e, func(a, b int) bool { return e[a] < e[b] })
		for i := 1; i < len(e); i++ {
			gaps = append(gaps, float64(e[i]-e[i-1])/1e6)
		}
	}
	return quantile(gaps, 0.99)
}

// probeJobs regenerates the first n jobs (stream: windows) of the run's
// seeded input.
func (r *run) probeJobs(n int) ([]*dataflow.Job, error) {
	jobs := make([]*dataflow.Job, 0, n)
	if r.w.stream {
		for i := 0; i < n; i++ {
			j, err := windowRef{sid: 0, w: i, events: streamCfg.WindowSize}.job(r.seed)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
		return jobs, nil
	}
	mix := newMix(r.w, r.seed)
	for i := 0; i < n; i++ {
		jobs = append(jobs, mix.Next())
	}
	return jobs, nil
}

// timeLoop calls f in batches of 16 until at least d has passed and
// returns the mean wall time per call.
func timeLoop(d time.Duration, f func(i int) error) (time.Duration, error) {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < d {
		for end := n + 16; n < end; n++ {
			if err := f(n); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0) / time.Duration(n), nil
}

// probeLayers times direct calls into the layers' public functions on the
// run's own job stream. It runs after the traced run, with the serving
// stack still open and idle.
func (r *run) probeLayers() (map[string]float64, error) {
	out := map[string]float64{}
	jobs, err := r.probeJobs(64)
	if err != nil {
		return nil, err
	}

	solo, err := core.New(core.ExecConfig{})
	if err != nil {
		return nil, err
	}
	per, err := timeLoop(500*time.Millisecond, func(i int) error {
		_, err := solo.Run(jobs[i%len(jobs)])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("solo run: %w", err)
	}
	out["core.run_solo_us_per_job"] = float64(per) / 1e3

	topo, sch := r.st.rt.Topology(), r.st.rt.Scheduler()
	per, err = timeLoop(200*time.Millisecond, func(i int) error {
		_, _, err := sched.EstimateJob(jobs[i%len(jobs)], topo, sch)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("estimate: %w", err)
	}
	out["sched.estimate_us_per_job"] = float64(per) / 1e3

	var pairs [][2]string
	for _, c := range topo.Computes() {
		for _, m := range topo.Memories() {
			pairs = append(pairs, [2]string{c.ID, m.ID})
		}
	}
	per, _ = timeLoop(200*time.Millisecond, func(i int) error {
		p := pairs[i%len(pairs)]
		topo.EffectiveCaps(p[0], p[1])
		topo.Path(p[0], p[1])
		return nil
	})
	out["topology.lookup_ns"] = float64(per)

	if out["region.access_4k_ns"], err = probeRegionAccess(); err != nil {
		return nil, fmt.Errorf("region access: %w", err)
	}

	reg := telemetry.NewRegistry()
	per, _ = timeLoop(100*time.Millisecond, func(int) error {
		reg.Add(telemetry.LayerRegion, "bytes_read", 1)
		return nil
	})
	out["telemetry.add_ns"] = float64(per)

	// Routing: the live cluster, or a probe 4-shard ring for single-server
	// workloads.
	cl := r.st.cl
	if cl == nil {
		if cl, err = shard.NewCluster(shard.Config{Shards: 4}); err != nil {
			return nil, err
		}
		defer cl.Close(nil) //nolint:errcheck // idle probe cluster
	}
	per, _ = timeLoop(100*time.Millisecond, func(i int) error {
		cl.Route(shard.Signature(jobs[i%len(jobs)]))
		return nil
	})
	out["shard.route_ns"] = float64(per)

	// Rebalance sweeps: timed per Cluster.Rebalance call during the run;
	// single servers run the same per-runtime sweep here.
	if len(r.rebalance) > 0 {
		out["cluster.rebalance_ms"] = mean(r.rebalance)
	} else if r.st.srv != nil {
		per, err = timeLoop(50*time.Millisecond, func(int) error {
			_, err := r.st.srv.Rebalance(0, region.RebalancePolicy{})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("rebalance: %w", err)
		}
		out["cluster.rebalance_ms"] = float64(per) / 1e6
	}
	return out, nil
}

// probeRegionAccess is the mean ns of a synchronous 4 KiB ReadAt or
// WriteAt on a near (same-socket DRAM) and a far (cross-socket DRAM)
// region, from one CPU.
func probeRegionAccess() (float64, error) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		return 0, err
	}
	m, err := region.NewManager(region.Config{Topology: topo, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		return 0, err
	}
	var hs []*region.Handle
	for _, dev := range []string{"node0/dram0", "node0/dram1"} {
		h, err := m.Alloc(region.Spec{
			Name: "probe", Class: props.Custom, Size: 1 << 20, Owner: "probe", Compute: "node0/cpu0",
			Req: props.Requirements{ByteAddr: props.Require}, Device: dev,
		})
		if err != nil {
			return 0, err
		}
		defer h.Release() //nolint:errcheck // probe regions die with m
		hs = append(hs, h)
	}
	buf := make([]byte, 4096)
	per, err := timeLoop(200*time.Millisecond, func(i int) error {
		h := hs[i%2]
		off := int64(i/2%256) * 4096
		var err error
		if i/2%2 == 0 {
			_, err = h.ReadAt(0, off, buf)
		} else {
			_, err = h.WriteAt(0, off, buf)
		}
		return err
	})
	return float64(per), err
}

// perLayer assembles every per-layer metric from the traced run.
func (r *run) perLayer(g0, g1 goStats) (map[string]float64, error) {
	probes, err := r.probeLayers()
	if err != nil {
		return nil, err
	}
	out := probes
	tel := r.st.rt.Telemetry()
	c := func(l telemetry.Layer, name string) float64 { return float64(tel.Counter(l, name)) }
	done := float64(r.rec.completed)
	perJob := func(v float64) float64 { return ratio(v, done) }

	out["loadgen.gen_us_per_job"] = r.genUsPerJob()
	out["loadgen.late_p99_ms"] = quantile(r.late, 0.99)

	out["core.admit_us_p50"] = r.tr.submitP50()
	if h := tel.Hist(telemetry.LayerRuntime, "server_queue_wait"); h != nil {
		out["core.queue_wait_mean_ms"] = float64(h.Mean()) / 1e6
	} else {
		out["core.queue_wait_mean_ms"] = 0
	}
	out["core.batch_size_mean"] = ratio(c(telemetry.LayerRuntime, "server_completed"), c(telemetry.LayerRuntime, "server_epochs"))
	out["core.slo_rejected_share"] = ratio(float64(r.rejected), float64(r.attempted))

	out["region.allocs_per_job"] = perJob(c(telemetry.LayerRegion, "allocs"))
	out["region.bytes_read_per_job"] = perJob(c(telemetry.LayerRegion, "bytes_read"))
	out["region.bytes_written_per_job"] = perJob(c(telemetry.LayerRegion, "bytes_written"))
	zc, mig := c(telemetry.LayerRegion, "transfers_zero_copy"), c(telemetry.LayerRegion, "transfers_migrated")
	out["region.zero_copy_share"] = ratio(zc, zc+mig)

	out["coherence.fetches_per_job"] = perJob(c(telemetry.LayerCoherence, "fetches"))
	out["coherence.invalidations_per_job"] = perJob(c(telemetry.LayerCoherence, "invalidations"))
	out["coherence.writebacks_per_job"] = perJob(c(telemetry.LayerCoherence, "writebacks"))

	out["telemetry.spans_per_job"] = perJob(float64(len(tel.Spans())))

	out["shard.load_skew"], out["shard.fabric_verbs_per_job"], out["shard.fabric_bytes_per_job"] = 0, 0, 0
	out["cluster.exported_per_sweep"], out["cluster.recall_share"] = 0, 0
	if cl := r.st.cl; cl != nil {
		stats := cl.Stats()
		out["shard.load_skew"] = shardSkew(stats)
		var verbs, bytes float64
		for _, s := range stats {
			verbs += float64(s.Fabric.Verbs)
			bytes += float64(s.Fabric.Bytes)
		}
		out["shard.fabric_verbs_per_job"] = perJob(verbs)
		out["shard.fabric_bytes_per_job"] = perJob(bytes)
		ms := cl.MigrationStats()
		out["cluster.exported_per_sweep"] = ratio(float64(ms.Exported), float64(len(r.rebalance)))
		out["cluster.recall_share"] = ratio(float64(ms.Recalled), float64(ms.Exported))
	}

	out["fault.checkpoints_per_job"] = perJob(c(telemetry.LayerFault, "checkpoints"))
	out["fault.retry_share"] = ratio(c(telemetry.LayerFault, "job_retries"), c(telemetry.LayerRuntime, "server_admitted"))
	out["fault.restored_bytes_per_job"] = perJob(c(telemetry.LayerFault, "restored_bytes"))

	out["stream.retire_gap_p99_ms"] = r.tr.settleGapP99()
	out["stream.source_stall_share"] = r.stall

	out["go.gc_cpu_share"] = ratio(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU)
	out["go.alloc_bytes_per_job"] = perJob(float64(g1.allocBytes - g0.allocBytes))
	out["go.allocs_per_job"] = perJob(float64(g1.allocObj - g0.allocObj))
	out["trace.overhead_share"] = 1 - ratio(r.halfJPS[1], r.halfJPS[0])
	return out, nil
}
