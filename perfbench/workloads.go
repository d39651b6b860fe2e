package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/region"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/workload"
)

// spec is one workload: the serving stack it builds and the traffic it
// sends. Every field is fixed here; only --seed varies the inputs.
type spec struct {
	name string
	// Serving stack.
	shards    int           // 0: one core.Server; >0: a shard.Cluster
	workers   int           // epoch workers per server (shard)
	deadline  time.Duration // SLO gate deadline; 0 disables the gate
	faultRate float64       // injected task-fault rate; 0 injects none
	recovery  bool          // checkpointing recovery policy
	stream    bool          // served through SubmitStream instead of SubmitAsync
	// Traffic.
	bursty    bool    // bursty arrivals (burst of 32) instead of Poisson
	rho       float64 // virtual-time load on the SLO model's pool
	realFrac  float64 // workload.MixConfig.RealFraction
	pacedRate float64 // wall submissions (stream: windows) per second, paced phase
	warmup    int     // warm-up submissions (stream: windows per stream)
	// virtual is the size of the virtual-time population: the submissions
	// right after warm-up, whose reports and admission decisions depend on
	// the seed alone (stream: the paced windows).
	virtual int
	// Every checkEvery-th submission (window) is replayed solo and compared.
	checkEvery int
	// Cluster.Rebalance is called every rebalanceEvery submissions.
	rebalanceEvery int
	// satRate, when set, bounds the saturation phase by count instead of
	// time: it submits satRate jobs per second of the phase's nominal
	// length, as fast as the stack takes them. The submissions, and so the
	// injected faults and the failures they cause, are then the same on
	// every run with a seed.
	satRate float64
}

const (
	queueDepth = 64
	maxBatch   = 8
	burstSize  = 32
	// recoveryAttempts caps runs per submission under recovery.
	recoveryAttempts = 4
	// sigPrefix caps how many leading admission decisions are replayed on
	// a fresh stack to check the signature.
	sigPrefix = 4000
)

var specs = []*spec{
	{
		name: "tiny-dag", workers: 4, deadline: 50 * time.Microsecond,
		rho: 1.3, realFrac: -1, pacedRate: 1500, warmup: 2000, virtual: 40000, checkEvery: 128,
	},
	{
		name: "region-bytes", workers: 4,
		rho: 0.9, realFrac: 1, pacedRate: 150, warmup: 200, virtual: 9000, checkEvery: 32,
	},
	{
		name: "cluster-recover", shards: 4, workers: 1, deadline: 50 * time.Microsecond,
		faultRate: 0.02, recovery: true, bursty: true,
		rho: 1.3, realFrac: 0.08, pacedRate: 600, warmup: 1000, virtual: 30000, checkEvery: 96, rebalanceEvery: 256,
		satRate: 3000,
	},
	{
		name: "stream-windows", workers: 4, recovery: true, stream: true,
		pacedRate: 500, warmup: 64, checkEvery: 64,
	},
}

func lookup(name string) (*spec, error) {
	for _, w := range specs {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stack is one built serving stack.
type stack struct {
	srv *core.Server   // single-server workloads
	cl  *shard.Cluster // cluster-recover
	rt  *core.Runtime  // pricing topology/scheduler and the shared telemetry registry
}

func (st *stack) submit(ctx context.Context, job *dataflow.Job, opt core.SubmitOptions) (*core.Ticket, error) {
	if st.cl != nil {
		return st.cl.SubmitAsync(ctx, job, opt)
	}
	return st.srv.SubmitAsync(ctx, job, opt)
}

func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if st.cl != nil {
		return st.cl.Close(ctx)
	}
	return st.srv.Close(ctx)
}

// build constructs the workload's serving stack; it is ready to serve
// when build returns.
func (w *spec) build(seed int64) (*stack, error) {
	scfg := core.ServerConfig{
		EpochWorkers: w.workers, MaxBatch: maxBatch, QueueDepth: queueDepth, Block: true,
	}
	if w.deadline > 0 {
		scfg.SLO = &core.SLOPolicy{Workers: w.workers, Deadline: w.deadline}
	}
	if w.recovery {
		scfg.Recovery = &core.RecoveryPolicy{MaxAttempts: recoveryAttempts}
	}
	if w.faultRate > 0 {
		scfg.Inject = fault.NewInjector(uint64(seed), w.faultRate, 1)
	}
	if w.shards == 0 {
		srv, err := core.NewServer(scfg)
		if err != nil {
			return nil, err
		}
		return &stack{srv: srv, rt: srv.Runtime()}, nil
	}
	cl, err := shard.NewCluster(shard.Config{
		Shards: w.shards, Server: scfg, Migrate: true,
		// Any cold region may leave its node, so sweeps export and recall.
		Rebalance: region.RebalancePolicy{EvictWatermark: 1e-12},
	})
	if err != nil {
		return nil, err
	}
	return &stack{cl: cl, rt: cl.Runtime()}, nil
}

// generator is the seeded traffic source: the job mix plus the virtual
// arrival clock the SLO gate prices against. It is used from one
// goroutine.
type generator struct {
	mix    *workload.Mix
	rng    *rand.Rand
	rate   float64 // virtual arrivals per second
	bursty bool
	left   int // jobs left in the current burst
	now    time.Duration
	busy   time.Duration // wall time spent generating
	n      int
}

func newMix(w *spec, seed int64) *workload.Mix {
	return workload.NewMix(workload.MixConfig{Seed: seed, RealFraction: w.realFrac})
}

// virtualRate derives the virtual arrival rate from rho by pricing the
// warm-up and the virtual population of the seeded job stream with the
// stack's scheduler estimator: rate × mean estimated makespan = rho × pool
// width, so the population is loaded to rho on every seed.
func virtualRate(w *spec, seed int64, st *stack) (float64, error) {
	probe := newMix(w, seed)
	topo, sch := st.rt.Topology(), st.rt.Scheduler()
	var total time.Duration
	n := w.warmup + w.virtual
	for i := 0; i < n; i++ {
		est, _, err := sched.EstimateJob(probe.Next(), topo, sch)
		if err != nil {
			return 0, fmt.Errorf("pricing probe job: %w", err)
		}
		total += est.Makespan
	}
	pool := w.workers * max(w.shards, 1)
	return w.rho * float64(pool) / (total / time.Duration(n)).Seconds(), nil
}

func newGenerator(w *spec, seed int64, rate float64) *generator {
	return &generator{
		mix: newMix(w, seed), rng: rand.New(rand.NewSource(seed ^ 0x617272)),
		rate: rate, bursty: w.bursty,
	}
}

func (g *generator) exp(rate float64) time.Duration {
	return time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second))
}

// next draws the next job and its virtual arrival time.
func (g *generator) next() (*dataflow.Job, time.Duration) {
	t0 := time.Now()
	switch {
	case !g.bursty:
		g.now += g.exp(g.rate)
	case g.left == 0:
		// Burst epochs arrive at rate/burst, so the mean rate matches.
		g.now += g.exp(g.rate / burstSize)
		g.left = burstSize - 1
	default:
		g.now += g.exp(g.rate * 50)
		g.left--
	}
	job := g.mix.Next()
	g.n++
	g.busy += time.Since(t0)
	return job, g.now
}
