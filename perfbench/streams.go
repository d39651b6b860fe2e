package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/stream"
	"repro/internal/workload"
)

// streamCfg is the window graph every stream instantiates: 64 events of at
// most 64 bytes per window, two key partitions, eight windows in flight.
var streamCfg = workload.StreamConfig{WindowSize: 64, EventSize: 64, Keys: 16, Partitions: 2, MaxInFlight: 8}

// windowRef names one window of one stream; its events are a pure
// function of (seed, stream, window), so the check can rebuild it.
type windowRef struct {
	sid, w, events int
}

// windowEvents draws window w of stream sid: seeded keys and payload sizes,
// so window makespans vary with the seed.
func windowEvents(seed int64, sid, w, n int) []stream.Event {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(sid)*7_919 + int64(w)))
	evs := make([]stream.Event, n)
	for i := range evs {
		key := rng.Intn(streamCfg.Keys)
		p := make([]byte, streamCfg.EventSize/2+rng.Intn(streamCfg.EventSize/2+1))
		rng.Read(p[4:])
		binary.BigEndian.PutUint32(p[:4], uint32(key))
		evs[i] = stream.Event{Key: uint64(key), Payload: p}
	}
	return evs
}

func (wr windowRef) job(seed int64) (*dataflow.Job, error) {
	return workload.Stream(streamCfg).Instantiate(wr.w, windowEvents(seed, wr.sid, wr.w, wr.events))
}

// source is the benchmark-side event source of one stream. Paced, event j
// is due at t0 + j/rate and a pull before that sleeps until it; a pull
// after it means the stream driver kept a due event waiting. Unpaced, it yields
// as fast as it is pulled until end. It is pulled from the stream
// driver's goroutine only.
type source struct {
	seed  int64
	sid   int
	limit int // events in the stream; 0 = until end
	t0    time.Time
	rate  float64 // events per second; 0 = unpaced
	end   time.Time
	j     int
	buf   []stream.Event
	stall time.Duration // time a due event waited for its pull
	last  time.Time     // previous pull
	late  []float64     // ms the source woke past each due time it slept for
	busy  time.Duration // wall time spent generating events
}

func (s *source) next() (stream.Event, bool) {
	if s.limit > 0 && s.j >= s.limit {
		return stream.Event{}, false
	}
	now := time.Now()
	if s.rate > 0 {
		due := s.t0.Add(time.Duration(float64(s.j) / s.rate * float64(time.Second)))
		if d := due.Sub(now); d > 0 {
			time.Sleep(d)
			s.late = append(s.late, float64(time.Since(due))/1e6)
		} else {
			from := due
			if s.last.After(from) {
				from = s.last
			}
			if now.After(from) {
				s.stall += now.Sub(from)
			}
		}
	} else if s.limit == 0 && !now.Before(s.end) {
		return stream.Event{}, false
	}
	ws := streamCfg.WindowSize
	if s.j%ws == 0 {
		t0 := time.Now()
		s.buf = windowEvents(s.seed, s.sid, s.j/ws, ws)
		s.busy += time.Since(t0)
	}
	ev := s.buf[s.j%ws]
	s.j++
	s.last = time.Now()
	return ev, true
}

// windowDue is the wall time window w becomes complete on a paced source:
// the due time of its last event.
func (s *source) windowDue(w int) time.Time {
	last := min((w+1)*streamCfg.WindowSize, s.limit) - 1
	return s.t0.Add(time.Duration(float64(last) / s.rate * float64(time.Second)))
}

// streamPhase runs one phase's streams to their end. Window reports are
// stamped when the consumer receives them, which is when the stream driver
// retires them in order.
func (r *run) streamPhase(phase int, srcs []*source) {
	var stalls time.Duration
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, src := range srcs {
		sp := workload.Stream(streamCfg)
		sp.Source = stream.SourceFunc(src.next)
		start := time.Now()
		tk, err := r.st.srv.SubmitStream(context.Background(), sp)
		end := time.Now()
		ssp := r.tr.add("submit", uint64(src.sid)<<32, -1, start, end)
		if err != nil {
			r.attempted++
			r.rec.fail(err, 1)
			continue
		}
		tr := r.tr
		wg.Add(1)
		go func(src *source) {
			defer wg.Done()
			w := 0
			prev := start
			for rep := range tk.Reports() {
				at := time.Now()
				id := uint64(src.sid)<<32 | uint64(w+1)
				tr.add("retire", id, ssp, prev, at)
				prev = at
				var due time.Time
				if phase == phPaced {
					due = src.windowDue(w)
				}
				var c *check
				if w%r.w.checkEvery == 0 {
					c = &check{win: windowRef{sid: src.sid, w: w}}
				}
				r.rec.settle(phase, phase == phPaced, due, at, rep, nil, c)
				w++
			}
			<-tk.Done()
			// The source is quiescent once the stream is done.
			ws := streamCfg.WindowSize
			windows := (src.j + ws - 1) / ws
			if err := tk.Err(); err != nil {
				r.rec.fail(fmt.Errorf("stream %d: %w", src.sid, err), windows-w)
			}
			mu.Lock()
			r.attempted += windows
			r.genBusy += src.busy
			r.genN += windows
			if phase == phPaced {
				r.pacedSubs += windows
				r.virtSubs += windows
				r.late = append(r.late, src.late...)
				stalls += src.stall
			}
			mu.Unlock()
			// Fix the event count of sampled windows (the last may be
			// partial).
			r.rec.mu.Lock()
			for i := range r.rec.checks {
				c := &r.rec.checks[i]
				if c.job == nil && c.win.sid == src.sid && c.win.events == 0 {
					c.win.events = min(ws, src.j-c.win.w*ws)
				}
			}
			r.rec.mu.Unlock()
		}(src)
	}
	wg.Wait()
	if phase == phPaced && len(srcs) > 0 {
		r.stall = stalls.Seconds() / float64(len(srcs))
	}
}

// runStreams drives the stream workload through its phases.
func (r *run) runStreams(seconds float64) error {
	n := min(runtime.NumCPU(), 2) // concurrent streams: never more than CPUs
	ws := streamCfg.WindowSize
	sid := 0
	mk := func() *source {
		s := &source{seed: r.seed, sid: sid}
		sid++
		return s
	}
	pacedDur, satDur := phaseDurations(seconds)

	warm := make([]*source, n)
	for i := range warm {
		warm[i] = mk()
		warm[i].limit = r.w.warmup * ws
	}
	r.streamPhase(phWarm, warm)

	// Paced: each stream carries an equal share of the window rate; the
	// number of events is fixed by the rate and the phase length, so the
	// paced windows are the same on every run with this seed.
	rate := r.w.pacedRate * float64(ws) / float64(n)
	paced := make([]*source, n)
	t0 := time.Now()
	for i := range paced {
		paced[i] = mk()
		paced[i].t0, paced[i].rate = t0, rate
		paced[i].limit = int(pacedDur.Seconds()*rate) + 1
	}
	r.streamPhase(phPaced, paced)
	r.stall /= pacedDur.Seconds()
	r.heapMB = liveHeapMB()

	return r.saturate(satDur, func(end time.Time) {
		srcs := make([]*source, n)
		for i := range srcs {
			srcs[i] = mk()
			srcs[i].end = end
		}
		r.streamPhase(phSat, srcs)
	})
}
