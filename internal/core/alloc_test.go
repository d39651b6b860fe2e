package core

// Allocation-regression gate for the determinism-tax work: the wavefront
// executor pools task clock views (topology.GetTaskView), the region manager
// pools data backings, and the claim ledger reuses its grant buffer. These
// budgets are pinned with modest headroom above the measured post-pooling
// numbers so the optimizations can't silently regress — if a change pushes a
// run back toward per-task map/backing churn, these fail before any
// benchmark is looked at.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/dataflow"
)

// allocBudget runs fn once to warm pools and caches, then measures.
func allocBudget(t *testing.T, name string, budget float64, fn func()) {
	t.Helper()
	fn()
	got := testing.AllocsPerRun(5, fn)
	t.Logf("%s: %.0f allocs/run (budget %.0f)", name, got, budget)
	if got > budget {
		t.Errorf("%s allocates %.0f per run, budget is %.0f — pooling regressed?", name, got, budget)
	}
}

// TestAllocBudgetSoloWavefront pins the allocation count of one parallel
// wavefront run of the wide diamond job (src → 8 branches → sink, with a
// fenced job global): measured ~1.9k after pooling.
func TestAllocBudgetSoloWavefront(t *testing.T) {
	rt, err := New(ExecConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	iter := 0
	allocBudget(t, "solo wavefront run", 2200, func() {
		iter++
		if _, err := rt.Run(wideJob(fmt.Sprintf("alloc%d", iter), 8)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetOverlappedBatch pins the allocation count of one
// overlapped serving batch of four small jobs on a shared pool.
func TestAllocBudgetOverlappedBatch(t *testing.T) {
	rt, err := New(ExecConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{
		Runtime: rt, EpochWorkers: 1, MaxBatch: 8, QueueDepth: 64, Block: true,
		MaxLinger: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background()) //nolint:errcheck
	iter := 0
	batch := func() []*dataflow.Job {
		iter++
		return []*dataflow.Job{
			wideJob(fmt.Sprintf("w%d-0", iter), 4),
			wideJob(fmt.Sprintf("w%d-1", iter), 4),
			wideJob(fmt.Sprintf("w%d-2", iter), 4),
			wideJob(fmt.Sprintf("w%d-3", iter), 4),
		}
	}
	allocBudget(t, "overlapped batch (4 jobs)", 5200, func() {
		jobs := batch()
		tks := make([]*Ticket, len(jobs))
		for k, j := range jobs {
			tk, err := s.SubmitAsync(context.Background(), j)
			if err != nil {
				t.Fatal(err)
			}
			tks[k] = tk
		}
		for _, tk := range tks {
			if _, err := tk.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	})
}
