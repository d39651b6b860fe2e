// Command perfbench is the repository benchmark: it serves seeded traffic
// through core.Server.SubmitAsync, shard.Cluster.SubmitAsync and
// core.Server.SubmitStream in one process and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload tiny-dag --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric the benchmark reports.
var units = map[string]string{
	"setup_s":                   "s",
	"jobs_per_s":                "1/s",
	"cpu_us_per_job":            "us",
	"wall_p50_ms":               "ms",
	"wall_p95_ms":               "ms",
	"virtual_makespan_gmean_us": "us",
	"virtual_sojourn_tail_us":   "us",
	"slo_met_share":             "ratio",
	"ok_share":                  "ratio",
	"live_heap_mb":              "MB",

	"loadgen.gen_us_per_job":          "us",
	"loadgen.late_p99_ms":             "ms",
	"core.admit_us_p50":               "us",
	"core.queue_wait_mean_ms":         "ms",
	"core.batch_size_mean":            "count",
	"core.slo_rejected_share":         "ratio",
	"core.run_solo_us_per_job":        "us",
	"sched.estimate_us_per_job":       "us",
	"topology.lookup_ns":              "ns",
	"region.access_4k_ns":             "ns",
	"region.allocs_per_job":           "count",
	"region.bytes_read_per_job":       "bytes",
	"region.bytes_written_per_job":    "bytes",
	"region.zero_copy_share":          "ratio",
	"coherence.fetches_per_job":       "count",
	"coherence.invalidations_per_job": "count",
	"coherence.writebacks_per_job":    "count",
	"telemetry.add_ns":                "ns",
	"telemetry.spans_per_job":         "count",
	"shard.route_ns":                  "ns",
	"shard.load_skew":                 "ratio",
	"shard.fabric_verbs_per_job":      "count",
	"shard.fabric_bytes_per_job":      "bytes",
	"fault.checkpoints_per_job":       "count",
	"fault.retry_share":               "ratio",
	"fault.restored_bytes_per_job":    "bytes",
	"cluster.rebalance_ms":            "ms",
	"cluster.exported_per_sweep":      "count",
	"cluster.recall_share":            "ratio",
	"stream.retire_gap_p99_ms":        "ms",
	"stream.source_stall_share":       "ratio",
	"go.gc_cpu_share":                 "ratio",
	"go.alloc_bytes_per_job":          "bytes",
	"go.allocs_per_job":               "count",
	"trace.overhead_share":            "ratio",
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload: tiny-dag | region-bytes | cluster-recover | stream-windows")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 25, "measured seconds (paced + saturation phases)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	w, err := lookup(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0|1")
	}
	// The load comes from one process on at most two cores, so figures
	// from hosts with more cores stay comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	r := &run{w: w, seed: *seed, trace: *trace == 1}
	if r.trace {
		r.tr = &tracer{t0: time.Now()}
	}
	if err := r.buildStack(); err != nil {
		return err
	}
	g0 := readGoStats()
	if w.stream {
		err = r.runStreams(*seconds)
	} else {
		err = r.runJobs(*seconds)
	}
	if err != nil {
		return err
	}
	g1 := readGoStats()
	var layers map[string]float64
	if r.trace {
		if layers, err = r.perLayer(g0, g1); err != nil {
			return err
		}
	}
	if err := r.st.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}

	mismatches, err := r.verify()
	if err != nil {
		return err
	}
	sigOK := true
	if !w.stream {
		if sigOK, err = r.replaySignature(); err != nil {
			return err
		}
	}
	// The calibration copies 32 MiB; it runs last so its garbage cannot
	// disturb the set-up timings.
	h := fingerprint()
	hj, _ := json.Marshal(h) // plain struct, cannot fail
	fmt.Printf("host: %s\n", hj)
	if r.trace {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := r.tr.write(path, h); err != nil {
			return fmt.Errorf("span dump: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(r.tr.spans), path)
	}

	res := result{
		Correct:   mismatches == 0 && sigOK && r.rec.completed > 0,
		Attempted: r.attempted,
		Failed:    r.rec.failed + mismatches,
	}
	e2e := map[string]float64{
		"setup_s":                   quantile(r.setup, 0.5),
		"jobs_per_s":                quantile(r.satJPS, 0.5),
		"cpu_us_per_job":            quantile(r.satCPU, 0.5),
		"wall_p50_ms":               pacedQuantile(r.rec.lat, 0.5),
		"wall_p95_ms":               pacedQuantile(r.rec.lat, 0.95),
		"virtual_makespan_gmean_us": gmean(r.rec.makespan),
		"virtual_sojourn_tail_us":   tailMean(r.rec.sojourn, 0.01),
		"slo_met_share":             ratio(float64(r.rec.met), float64(r.virtSubs)),
		"ok_share":                  1 - ratio(float64(res.Failed), float64(res.Attempted)),
		"live_heap_mb":              r.heapMB,
	}
	summarize(r, e2e, mismatches, sigOK)
	pick := e2e
	if r.trace {
		pick = layers
	}
	res.Metrics = make(map[string]metric, len(pick))
	for k, v := range pick {
		u, ok := units[k]
		if !ok {
			return fmt.Errorf("metric %s has no unit", k)
		}
		res.Metrics[k] = metric{Value: v, Unit: u}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// summarize prints the human-readable lines that precede the result.
func summarize(r *run, e2e map[string]float64, mismatches int, sigOK bool) {
	fmt.Printf("workload %s seed %d: attempted=%d completed=%d failed=%d (failed_share=%.5f) slo_rejected=%d mismatches=%d\n",
		r.w.name, r.seed, r.attempted, r.rec.completed, r.rec.failed+mismatches,
		ratio(float64(r.rec.failed+mismatches), float64(r.attempted)), r.rejected, mismatches)
	fmt.Printf("paced: %d submissions, %d latency samples, wall p99 %.4f ms (median of slices), loadgen.late_p99_ms=%.4f; saturation: %d jobs in %d slices\n",
		r.pacedSubs, len(r.rec.lat), pacedQuantile(r.rec.lat, 0.99), quantile(r.late, 0.99), r.satJobs, len(r.satJPS))
	fmt.Printf("saturation jobs/s by slice: %.0f\n", r.satJPS)
	fmt.Printf("setup s: min %.6f p25 %.6f p50 %.6f p75 %.6f max %.6f\n", quantile(r.setup, 0), quantile(r.setup, 0.25), quantile(r.setup, 0.5), quantile(r.setup, 0.75), quantile(r.setup, 1))
	fmt.Printf("virtual population: %d submissions, %d completed, makespan p50 %.3f us, sojourn p99 %.3f us\n",
		r.virtSubs, len(r.rec.makespan), quantile(r.rec.makespan, 0.5), quantile(r.rec.sojourn, 0.99))
	if !r.w.stream {
		fmt.Printf("admission signature over %d decisions: %s (replay %s)\n",
			len(r.decisions), signature(r.decisions), map[bool]string{true: "identical", false: "DIVERGED"}[sigOK])
	}
	fmt.Printf("correctness: %d sampled reports compared with a solo run, %d mismatches\n", len(r.rec.checks)-r.retried, mismatches)
	if r.retried > 0 {
		fmt.Printf("retried reports: %d sampled, %d differ from solo RunWithRecovery with the same faults\n", r.retried, r.retryDiverged)
	}
	msgs := make([]string, 0, len(r.rec.errs))
	for m := range r.rec.errs {
		msgs = append(msgs, m)
	}
	sort.Strings(msgs)
	for _, m := range msgs {
		fmt.Printf("failure x%d: %s\n", r.rec.errs[m], m)
	}
	names := make([]string, 0, len(e2e))
	for k := range e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-24s %14.6f %s\n", k, e2e[k], units[k])
	}
}
