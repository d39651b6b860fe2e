// Quickstart: the smallest complete program against the disaggregated
// programming model.
//
// It builds a two-task job — a producer that writes a greeting into its
// output region and a consumer that reads it — and lets the runtime decide
// everything the paper says developers should not decide themselves: which
// compute device runs each task, which physical memory serves each region,
// and how the producer's output becomes the consumer's input (ownership
// transfer, not a copy).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataflow"
)

func main() {
	// A runtime with all defaults: the reference single-node testbed
	// (2 CPUs, GPU, TPU, FPGA, nine memory tiers, a far-memory pool),
	// the best-fit placement optimizer, and the HEFT scheduler.
	rt, err := core.New(core.ExecConfig{})
	if err != nil {
		log.Fatal(err)
	}

	job := dataflow.NewJob("quickstart")

	produce := job.Task("produce", dataflow.Props{
		Ops: 1e6, // declared compute work, used by the scheduler
	}, func(ctx dataflow.Ctx) error {
		// Output() allocates the region that will be handed to the next
		// task (Fig. 4's "Out"). We never say *where* — only how big.
		out, err := ctx.Output(64)
		if err != nil {
			return err
		}
		now, err := out.WriteAt(ctx.Now(), 0, []byte("hello, disaggregated world!"))
		if err != nil {
			return err
		}
		ctx.Wait(now) // advance the task's virtual clock past the write
		dev, _ := out.DeviceID()
		ctx.Log("wrote greeting into %s", dev)
		return nil
	})

	consume := job.Task("consume", dataflow.Props{
		Ops: 1e6,
	}, func(ctx dataflow.Ctx) error {
		// Inputs() returns the regions our predecessors produced. The
		// runtime moved ownership to us — zero bytes were copied if this
		// task's compute device can address the producer's placement.
		in := ctx.Inputs()[0]
		buf := make([]byte, 27)
		now, err := in.ReadAt(ctx.Now(), 0, buf)
		if err != nil {
			return err
		}
		ctx.Wait(now)
		ctx.Log("read back: %q", buf)
		return nil
	})

	produce.Then(consume)

	report, err := rt.Run(job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.String())
	fmt.Printf("\nvirtual makespan: %v (leaked regions: %d)\n",
		report.Makespan, rt.Regions().Live())
}
