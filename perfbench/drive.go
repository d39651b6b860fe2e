package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/fault"
	"repro/internal/shard"
)

// Phases of one run (sibench-style). Warm-up is excluded from every
// metric; the paced phase gives latency and the virtual-time metrics; the
// saturation phase gives throughput and CPU.
const (
	phWarm = iota
	phPaced
	phSat
	phTail // unmeasured top-up of the virtual-time population
)

// check is one sampled completion, replayed solo after the run.
type check struct {
	job *dataflow.Job // nil for stream windows (rebuilt from win)
	win windowRef
	rep *core.Report
	ns  string // serving namespace the fault injector keyed its sites on
}

// latSample is one paced completion: its due time and its latency from
// that due time to settle (or retirement), in ms.
type latSample struct {
	due time.Time
	ms  float64
}

// recorder accumulates outcomes. Settle goroutines and stream consumers
// call it concurrently.
type recorder struct {
	mu        sync.Mutex
	completed int
	failed    int
	errs      map[string]int // failure message → count
	satDone   int            // saturation-phase completions so far
	// Raw samples, never histogram buckets: wall latency of the paced
	// phase, and the virtual-time population (see spec.virtual).
	lat      []latSample
	makespan []float64 // virtual µs
	sojourn  []float64 // virtual µs (SLOWait + Makespan), guaranteed tier
	met      int       // guaranteed tier within its virtual deadline
	checks   []check
}

func (rc *recorder) fail(err error, n int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.failed += n
	if rc.errs == nil {
		rc.errs = make(map[string]int)
	}
	rc.errs[err.Error()] += n
}

// settle accounts one delivered outcome; due is zero outside the paced
// phase, virt marks the virtual-time population. A non-nil c is kept for
// the correctness check.
func (rc *recorder) settle(phase int, virt bool, due, at time.Time, rep *core.Report, err error, c *check) {
	if err != nil || rep == nil {
		if err == nil {
			err = errors.New("nil report")
		}
		rc.fail(err, 1)
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.completed++
	switch phase {
	case phSat:
		rc.satDone++
	case phPaced:
		rc.lat = append(rc.lat, latSample{due, float64(at.Sub(due)) / 1e6})
	}
	if virt {
		rc.makespan = append(rc.makespan, float64(rep.Makespan)/1e3)
		if !rep.BestEffort {
			sj := rep.SLOWait + rep.Makespan
			rc.sojourn = append(rc.sojourn, float64(sj)/1e3)
			if rep.SLODeadline == 0 || sj <= rep.SLODeadline {
				rc.met++
			}
		}
	}
	if c != nil {
		c.rep = rep
		rc.checks = append(rc.checks, *c)
	}
}

func (rc *recorder) satCount() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.satDone
}

// run is the state of one benchmark invocation, shared by the job and
// stream drivers.
type run struct {
	w     *spec
	seed  int64
	trace bool
	st    *stack
	tr    *tracer // nil while tracing is off
	rec   recorder
	wg    sync.WaitGroup // settle goroutines / stream consumers

	setup     []float64 // s per stack build
	attempted int
	rejected  int // SLO rejections (refusals, not failures)
	pacedSubs int
	virtSubs  int       // submissions in the virtual-time population
	late      []float64 // ms the generator ran behind each paced due time
	stall     float64   // stream: share of paced time the source was behind
	decisions []byte    // leading admission decisions (signature prefix)
	rebalance []float64 // ms per Cluster.Rebalance call
	shardSeq  []uint64  // per-shard server ticket IDs handed out so far
	gen       *generator
	genBusy   time.Duration // stream sources' event generation
	genN      int
	pending   *pendingJob
	satJPS    []float64 // completions per second, per saturation slice
	satCPU    []float64 // process CPU µs per completion, per slice
	satJobs   int
	halfJPS   [2]float64 // traced run: untraced vs traced saturation halves
	satQuota  int        // jobs per saturation half; 0: bounded by time
	heapMB    float64
	// Sampled retried reports, and how many differ from RunWithRecovery.
	retried, retryDiverged int
}

type pendingJob struct {
	job *dataflow.Job
	at  time.Duration
}

// buildStack builds the stack setupReps times, keeps the last and reports
// the median build time.
func (r *run) buildStack() error {
	const setupReps = 101
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		st, err := r.w.build(r.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := st.close(); err != nil {
				return fmt.Errorf("set-up close: %w", err)
			}
			continue
		}
		r.st = st
	}
	return nil
}

// decision maps an admission outcome to the signature alphabet used by
// loadgen.Result.AdmissionSig.
func decision(tk *core.Ticket, err error) byte {
	switch {
	case err == nil && tk.BestEffort():
		return 'B'
	case err == nil:
		return 'A'
	case errors.Is(err, core.ErrDeadline):
		return 'S'
	case errors.Is(err, core.ErrQueueFull):
		return 'Q'
	default:
		return 'E'
	}
}

func signature(ds []byte) string {
	h := fnv.New64a()
	h.Write(ds)
	return fmt.Sprintf("%016x", h.Sum64())
}

// send submits one job from the generator goroutine; settlement is timed
// by a goroutine waiting on the ticket, so a completion is stamped when
// the ticket settles, not when a collector gets to it.
func (r *run) send(phase int, job *dataflow.Job, at time.Duration, due time.Time) {
	if n := r.w.rebalanceEvery; n > 0 && r.attempted > 0 && r.attempted%n == 0 {
		t0 := time.Now()
		r.st.cl.Rebalance(at)
		r.rebalance = append(r.rebalance, float64(time.Since(t0))/1e6)
		r.tr.add("rebalance", uint64(r.attempted), -1, t0, time.Now())
	}
	idx := r.attempted
	r.attempted++
	// A shard's server names a submission's namespace after its own ticket
	// sequence; mirror it so a sampled job's injected faults can be
	// replayed solo.
	var ns string
	if r.st.cl != nil && r.w.faultRate > 0 {
		if r.shardSeq == nil {
			r.shardSeq = make([]uint64, r.w.shards)
		}
		sh := r.st.cl.Route(shard.Signature(job))
		r.shardSeq[sh]++
		ns = fmt.Sprintf("%s#%d", job.Name(), r.shardSeq[sh])
	}
	if phase == phPaced {
		r.pacedSubs++
	}
	virt := idx >= r.w.warmup && idx < r.w.warmup+r.w.virtual
	if virt {
		r.virtSubs++
	}
	start := time.Now()
	tk, err := r.st.submit(context.Background(), job, core.SubmitOptions{Arrival: at, Deadline: r.w.deadline})
	end := time.Now()
	sp := r.tr.add("submit", uint64(idx), -1, start, end)
	if (phase == phWarm || phase == phPaced) && len(r.decisions) < sigPrefix {
		r.decisions = append(r.decisions, decision(tk, err))
	}
	if err != nil {
		if errors.Is(err, core.ErrDeadline) {
			r.rejected++
			return
		}
		r.rec.fail(err, 1)
		return
	}
	var c *check
	if idx%r.w.checkEvery == 0 {
		c = &check{job: job, ns: ns}
	}
	tr := r.tr
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		rep, err := tk.Wait(context.Background())
		at := time.Now()
		tr.add("settle", uint64(idx), sp, end, at)
		r.rec.settle(phase, virt, due, at, rep, err, c)
	}()
}

func (r *run) next() (*dataflow.Job, time.Duration) {
	if p := r.pending; p != nil {
		r.pending = nil
		return p.job, p.at
	}
	return r.gen.next()
}

// runJobs drives a SubmitAsync workload through its phases.
func (r *run) runJobs(seconds float64) error {
	rate, err := virtualRate(r.w, r.seed, r.st)
	if err != nil {
		return err
	}
	r.gen = newGenerator(r.w, r.seed, rate)
	pacedDur, satDur := phaseDurations(seconds)

	for i := 0; i < r.w.warmup; i++ {
		job, at := r.next()
		r.send(phWarm, job, at, time.Time{})
	}
	r.wg.Wait()

	// Paced: open loop at a fixed wall rate. The virtual arrival clock is
	// scaled onto the wall clock, so arrivals keep their Poisson or bursty
	// shape; every job is timed from its due time.
	t0 := time.Now()
	end := t0.Add(pacedDur)
	scale := r.gen.rate / r.w.pacedRate // wall seconds per virtual second
	at0 := time.Duration(-1)
	for {
		job, at := r.next()
		if at0 < 0 {
			at0 = at
		}
		due := t0.Add(time.Duration(float64(at-at0) * scale))
		if due.After(end) {
			r.pending = &pendingJob{job, at}
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.late = append(r.late, float64(time.Since(due))/1e6)
		r.send(phPaced, job, at, due)
	}
	r.wg.Wait()
	r.heapMB = liveHeapMB()

	if err := r.saturate(satDur, func(end time.Time) {
		for n := 0; r.satMore(n, end); n++ {
			job, at := r.next()
			r.send(phSat, job, at, time.Time{})
		}
	}); err != nil {
		return err
	}
	// Complete the virtual-time population if saturation ended short of it.
	for r.attempted < r.w.warmup+r.w.virtual {
		job, at := r.next()
		r.send(phTail, job, at, time.Time{})
	}
	r.wg.Wait()
	return nil
}

// phaseDurations splits the measured time between the paced phase (60%)
// and the saturation phase.
func phaseDurations(seconds float64) (paced, sat time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	paced = total * 3 / 5
	return paced, total - paced
}

// satSlice is the saturation sampling period: throughput and CPU per job
// are reported as the median over these slices.
const satSlice = time.Second

// point is one saturation sample.
type point struct {
	t   time.Time
	cpu time.Duration
	n   int // saturation completions so far
}

// saturate runs the unpaced phase through drive, which must return once
// its end time has passed or, on a count-bounded workload, once it has
// submitted its quota (see satMore). The traced run splits it into an
// untraced and a traced half to measure tracing overhead.
func (r *run) saturate(dur time.Duration, drive func(end time.Time)) error {
	tr := r.tr
	halves := 1
	if r.trace {
		halves = 2
		r.tr = nil
	}
	r.satQuota = int(math.Round(r.w.satRate*dur.Seconds())) / halves
	for h := 0; h < halves; h++ {
		if h == 1 {
			r.tr = tr
		}
		pts := r.sampleWhile(dur/time.Duration(halves), drive)
		first, last := pts[0], pts[len(pts)-1]
		r.halfJPS[h] = float64(last.n-first.n) / last.t.Sub(first.t).Seconds()
		r.satJobs += last.n - first.n
		for i := 1; i < len(pts); i++ {
			a, b := pts[i-1], pts[i]
			if dt := b.t.Sub(a.t); dt >= satSlice/2 && b.n > a.n {
				r.satJPS = append(r.satJPS, float64(b.n-a.n)/dt.Seconds())
				r.satCPU = append(r.satCPU, float64(b.cpu-a.cpu)/1e3/float64(b.n-a.n))
			}
		}
	}
	r.wg.Wait()
	if len(r.satJPS) == 0 {
		return errors.New("saturation phase completed no jobs")
	}
	return nil
}

// satMore reports whether a saturation drive that has submitted n jobs
// submits another: until end, or until the quota on a count-bounded
// workload.
func (r *run) satMore(n int, end time.Time) bool {
	if r.satQuota > 0 {
		return n < r.satQuota
	}
	return time.Now().Before(end)
}

// sampleWhile runs drive for dur and snapshots completions and process
// CPU every satSlice meanwhile.
func (r *run) sampleWhile(dur time.Duration, drive func(end time.Time)) []point {
	snap := func() point { return point{time.Now(), cpuTime(), r.rec.satCount()} }
	pts := []point{snap()}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(satSlice)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				pts = append(pts, snap())
			case <-stop:
				return
			}
		}
	}()
	drive(pts[0].t.Add(dur))
	close(stop)
	<-done
	return append(pts, snap())
}

// pacedQuantile is the median over consecutive slices of the paced phase
// (by due time, at least 1000 samples each, at most twelve) of each
// slice's q-quantile latency in ms.
func pacedQuantile(lat []latSample, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]latSample(nil), lat...)
	sort.Slice(s, func(a, b int) bool { return s[a].due.Before(s[b].due) })
	k := min(max(len(s)/1000, 1), 12)
	qs := make([]float64, k)
	for i := range qs {
		part := s[i*len(s)/k : (i+1)*len(s)/k]
		ms := make([]float64, len(part))
		for j, x := range part {
			ms[j] = x.ms
		}
		qs[i] = quantile(ms, q)
	}
	return quantile(qs, 0.5)
}

// replaySignature re-submits the leading decisions' jobs, with the same
// virtual arrivals, to a fresh stack and checks every admission decision
// repeats. Jobs are canceled right after admission, so the replay prices
// admission without executing the jobs.
func (r *run) replaySignature() (bool, error) {
	st, err := r.w.build(r.seed)
	if err != nil {
		return false, err
	}
	gen := newGenerator(r.w, r.seed, r.gen.rate)
	got := make([]byte, 0, len(r.decisions))
	for range r.decisions {
		job, at := gen.next()
		ctx, cancel := context.WithCancel(context.Background())
		tk, err := st.submit(ctx, job, core.SubmitOptions{Arrival: at, Deadline: r.w.deadline})
		cancel()
		got = append(got, decision(tk, err))
	}
	if err := st.close(); err != nil && !errors.Is(err, context.Canceled) {
		return false, err
	}
	return string(got) == string(r.decisions), nil
}

// verify replays every sampled completion solo and compares the reports
// byte for byte: Runtime.Run, or RunWithRecovery over an equivalent
// checkpoint store when the workload serves with recovery, with the same
// task faults injected. It returns the number of mismatches.
func (r *run) verify() (int, error) {
	plain, err := core.New(core.ExecConfig{})
	if err != nil {
		return 0, err
	}
	bad := 0
	r.retried, r.retryDiverged = 0, 0
	for _, c := range r.rec.checks {
		job := c.job
		if job == nil {
			if job, err = c.win.job(r.seed); err != nil {
				return 0, err
			}
		}
		want, err := r.solo(plain, job, c.ns)
		if err != nil {
			return 0, fmt.Errorf("solo run of %s: %w", c.rep.Job, err)
		}
		got := c.rep.String()
		if c.rep.Attempts > 1 {
			// A served retry reruns inside the failed attempt's epoch and
			// core clocks; RunWithRecovery restarts on fresh ones. No
			// contract makes the two equal, so a difference is reported,
			// not counted as a failure.
			r.retried++
			if got != want.String() {
				r.retryDiverged++
			}
			continue
		}
		if got != want.String() {
			bad++
			if bad == 1 {
				fmt.Printf("mismatch: %s\n--- served\n%s--- solo\n%s", c.rep.Job, got, want.String())
			}
		}
	}
	return bad, nil
}

// solo runs job alone. ns is the served namespace: the injector's faults
// for it are found with a same-seeded injector and replayed as targeted
// kills.
func (r *run) solo(plain *core.Runtime, job *dataflow.Job, ns string) (*core.Report, error) {
	if !r.w.recovery {
		return plain.Run(job)
	}
	var kills *fault.Injector
	if ns != "" {
		probe := fault.NewInjector(uint64(r.seed), r.w.faultRate, 1)
		for _, t := range job.Tasks() {
			if probe.Step(ns, t.ID()) != nil {
				if kills == nil {
					kills = fault.NewInjector(0, 0, 1)
				}
				kills.Kill(t.ID(), 1)
			}
		}
	}
	rt := plain
	if kills != nil {
		var err error
		if rt, err = core.New(core.ExecConfig{Inject: kills}); err != nil {
			return nil, err
		}
	}
	store, err := checkpointStore()
	if err != nil {
		return nil, err
	}
	rep, _, err := rt.RunWithRecovery(job, core.NewCheckpointer(store), recoveryAttempts)
	return rep, err
}

// checkpointStore is the serving stacks' default checkpoint store: 2-way
// replication over three fabric memory nodes.
func checkpointStore() (fault.Store, error) {
	f := cluster.NewFabric(cluster.Config{})
	for i := 0; i < 3; i++ {
		if err := f.AddNode(fmt.Sprintf("ckmem%d", i), 1<<28); err != nil {
			return nil, err
		}
	}
	return fault.NewReplicatedStore(f, 2)
}

// shardSkew is max ÷ mean submissions over the shards.
func shardSkew(stats []shard.ShardStats) float64 {
	var sum, mx float64
	for _, s := range stats {
		v := float64(s.Submitted)
		sum += v
		mx = max(mx, v)
	}
	return ratio(mx, sum/float64(len(stats)))
}

// genUsPerJob is the generator's wall time per submission (stream: per
// window).
func (r *run) genUsPerJob() float64 {
	if r.gen != nil {
		return ratio(float64(r.gen.busy)/1e3, float64(r.gen.n))
	}
	return ratio(float64(r.genBusy)/1e3, float64(r.genN))
}
