package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/fault"
)

func newCkStore(t testing.TB) (*Checkpointer, *cluster.Fabric) {
	t.Helper()
	fabric := cluster.NewFabric(cluster.Config{})
	for i := 0; i < 8; i++ {
		if err := fabric.AddNode(fmt.Sprintf("ckmem%d", i), 1<<24); err != nil {
			t.Fatal(err)
		}
	}
	store, err := fault.NewErasureStore(fabric, fault.ErasureConfig{Data: 4, Parity: 2, SpanSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return NewCheckpointer(ckWithAutoFlush{store, new(sync.Mutex)}), fabric
}

// ckWithAutoFlush seals spans on every Put so snapshots are immediately
// durable (a real deployment would group-commit; tests want determinism).
// Put and its seal are one critical section: otherwise, with concurrent
// Puts, one seal ships another Put's staged bytes too, and the Put price —
// the recorded replay price — depends on wall-clock interleaving.
type ckWithAutoFlush struct {
	*fault.ErasureStore
	mu *sync.Mutex
}

func (s ckWithAutoFlush) Put(data []byte) (fault.ObjectID, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, d, err := s.ErasureStore.Put(data)
	if err != nil {
		return id, d, err
	}
	d2, err := s.ErasureStore.Flush()
	return id, d + d2, err
}

// crashAfterFirstPut runs crash once, right after the first snapshot is
// stored.
type crashAfterFirstPut struct {
	fault.Store
	crash func() error
	once  sync.Once
}

func (s *crashAfterFirstPut) Put(data []byte) (fault.ObjectID, time.Duration, error) {
	id, d, err := s.Store.Put(data)
	if err == nil {
		s.once.Do(func() { err = s.crash() })
	}
	return id, d, err
}

// flakyJob builds a 3-task chain whose middle task fails the first
// `failures` executions; counters observe re-execution.
func flakyJob(failures int, execCounts map[string]*int) *dataflow.Job {
	j := dataflow.NewJob("flaky")
	remaining := failures
	count := func(id string) {
		if execCounts != nil {
			(*execCounts[id])++
		}
	}
	a := j.Task("produce", dataflow.Props{Ops: 1e4}, func(ctx dataflow.Ctx) error {
		count("produce")
		out, err := ctx.Output(64)
		if err != nil {
			return err
		}
		f := out.WriteAsync(ctx.Now(), 0, []byte("precious intermediate"))
		now, err := f.Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		return nil
	})
	b := j.Task("transform", dataflow.Props{Ops: 1e4}, func(ctx dataflow.Ctx) error {
		count("transform")
		if remaining > 0 {
			remaining--
			return errors.New("transient failure")
		}
		in := ctx.Inputs()[0]
		buf := make([]byte, 21)
		f := in.ReadAsync(ctx.Now(), 0, buf)
		now, err := f.Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		out, err := ctx.Output(64)
		if err != nil {
			return err
		}
		fw := out.WriteAsync(ctx.Now(), 0, bytes.ToUpper(buf))
		now, err = fw.Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		return nil
	})
	c := j.Task("consume", dataflow.Props{Ops: 1e4}, func(ctx dataflow.Ctx) error {
		count("consume")
		in := ctx.Inputs()[0]
		buf := make([]byte, 21)
		f := in.ReadAsync(ctx.Now(), 0, buf)
		now, err := f.Await(ctx.Now())
		if err != nil {
			return err
		}
		ctx.Wait(now)
		ctx.Log("final: %s", buf)
		return nil
	})
	a.Then(b)
	b.Then(c)
	return j
}

func TestRecoverySkipsCheckpointedTasks(t *testing.T) {
	rt := newRuntime(t)
	ck, _ := newCkStore(t)
	counts := map[string]*int{"produce": new(int), "transform": new(int), "consume": new(int)}
	job := flakyJob(1, counts)
	rep, attempts, err := rt.RunWithRecovery(job, ck, 3)
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	// The producer ran once: its second "execution" was a restore.
	if *counts["produce"] != 1 {
		t.Errorf("produce executed %d times, want 1 (checkpoint must skip re-execution)", *counts["produce"])
	}
	if *counts["transform"] != 2 { // failed once, then succeeded
		t.Errorf("transform executed %d times, want 2", *counts["transform"])
	}
	if *counts["consume"] != 1 {
		t.Errorf("consume executed %d times, want 1", *counts["consume"])
	}
	// The data flowed through the restore intact.
	var final string
	for _, l := range rep.Tasks["consume"].Logs {
		if strings.Contains(l, "final:") {
			final = l
		}
	}
	if !strings.Contains(final, "PRECIOUS INTERMEDIATE") {
		t.Errorf("restored pipeline produced %q", final)
	}
	// The restore is visible in the report.
	restored := false
	for _, l := range rep.Tasks["produce"].Logs {
		if strings.Contains(l, "restored from checkpoint") {
			restored = true
		}
	}
	if !restored {
		t.Error("produce must be marked restored on the successful attempt")
	}
	// Snapshots are garbage-collected on success.
	if ck.Snapshots() != 0 {
		t.Errorf("snapshots after success = %d, want 0", ck.Snapshots())
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
}

func TestRecoveryExhaustsAttempts(t *testing.T) {
	rt := newRuntime(t)
	ck, _ := newCkStore(t)
	job := flakyJob(99, nil) // never succeeds
	_, attempts, err := rt.RunWithRecovery(job, ck, 3)
	if err == nil {
		t.Fatal("permanently failing job must error")
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error must mention attempts: %v", err)
	}
	if rt.Regions().Live() != 0 {
		t.Errorf("leaked %d regions", rt.Regions().Live())
	}
}

func TestRecoverySurvivesStorageNodeCrash(t *testing.T) {
	// A memory node holding checkpoint shards crashes between attempts;
	// erasure coding must still restore the snapshot. The crash lands right
	// after the first snapshot (produce's) is stored, before the flaky
	// transform fails, so the retry restores through a degraded read.
	rt := newRuntime(t)
	base, fabric := newCkStore(t)
	ck := NewCheckpointer(&crashAfterFirstPut{Store: base.store, crash: func() error { return fabric.Crash("ckmem0") }})
	counts := map[string]*int{"produce": new(int), "transform": new(int), "consume": new(int)}
	rep, attempts, err := rt.RunWithRecovery(flakyJob(1, counts), ck, 2)
	if err != nil {
		t.Fatalf("retry with crashed checkpoint node: %v", err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
	if *counts["produce"] != 1 {
		t.Errorf("produce re-executed despite degraded checkpoint read")
	}
	var final string
	for _, l := range rep.Tasks["consume"].Logs {
		final += l
	}
	if !strings.Contains(final, "PRECIOUS INTERMEDIATE") {
		t.Errorf("degraded restore corrupted data: %q", final)
	}
}

func TestRunWithRecoveryValidation(t *testing.T) {
	rt := newRuntime(t)
	if _, _, err := rt.RunWithRecovery(flakyJob(0, nil), nil, 2); err == nil {
		t.Error("nil checkpointer must fail")
	}
}

func TestRecoveryNoFailureSingleAttempt(t *testing.T) {
	rt := newRuntime(t)
	ck, _ := newCkStore(t)
	rep, attempts, err := rt.RunWithRecovery(flakyJob(0, nil), ck, 3)
	if err != nil || attempts != 1 {
		t.Fatalf("clean job: attempts=%d err=%v", attempts, err)
	}
	if rep.Makespan <= 0 {
		t.Error("makespan must be positive")
	}
}
