package topology

import (
	"testing"
	"time"

	"repro/internal/memsim"
)

// TestEpochQueuesByIndex: the dense-index and string forms of the queue
// state agree, views are independent snapshots, Merge/Absorb take the
// element-wise max, and pooled views copy their source exactly.
func TestEpochQueuesByIndex(t *testing.T) {
	topo := testbed(t)
	cpu, _ := topo.ComputeIndex("node0/cpu0")
	dram, _ := topo.MemoryIndex("node0/dram0")
	hbm, _ := topo.MemoryIndex("node0/hbm0")

	e := topo.NewEpoch()
	done, err := e.AccessAt(cpu, dram, 0, 4096, memsim.Read, memsim.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := topo.NewTaskView().AccessAt(cpu, dram, 0, 4096, memsim.Read, memsim.Sequential)
	if done != want {
		t.Errorf("epoch and fresh view price the first access differently: %v vs %v", done, want)
	}
	if e.BusyAt(dram) == 0 || e.BusyAt(dram) != e.BusyUntil("node0/dram0") {
		t.Errorf("BusyAt %v, BusyUntil %v", e.BusyAt(dram), e.BusyUntil("node0/dram0"))
	}
	if e.BusyAt(hbm) != 0 || e.BusyUntil("no-such-device") != 0 {
		t.Error("untouched and unknown devices must read as drained")
	}

	v := e.View()
	if _, err := v.AccessAt(cpu, hbm, 0, 1<<20, memsim.Write, memsim.Sequential); err != nil {
		t.Fatal(err)
	}
	if e.BusyAt(hbm) != 0 {
		t.Error("a view must not write through to its epoch")
	}
	other := topo.NewTaskView()
	if _, err := other.AccessAt(cpu, dram, time.Millisecond, 64, memsim.Read, memsim.Sequential); err != nil {
		t.Fatal(err)
	}
	merged := v.Clone()
	merged.Merge(other)
	for _, mi := range []int{dram, hbm} {
		if got, want := merged.BusyAt(mi), max(v.BusyAt(mi), other.BusyAt(mi)); got != want {
			t.Errorf("Merge[%d] = %v, want %v", mi, got, want)
		}
	}
	e.AbsorbViews(v, nil, other)
	if e.BusyAt(hbm) != v.BusyAt(hbm) || e.BusyAt(dram) != other.BusyAt(dram) {
		t.Error("AbsorbViews must fold in the element-wise max")
	}

	pooled := GetTaskView(merged)
	for mi := 0; mi < topo.NumMemories(); mi++ {
		if pooled.BusyAt(mi) != merged.BusyAt(mi) {
			t.Fatalf("pooled view differs at %d", mi)
		}
	}
	PutTaskView(pooled)
}

// TestViewSeesDevicesAddedLater: a view created before a memory device was
// added prices that device from a drained queue.
func TestViewSeesDevicesAddedLater(t *testing.T) {
	topo := testbed(t)
	v := topo.NewTaskView()
	late, err := memsim.NewDevice("node0/late", memsim.DRAMSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.AddMemory(late); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(Link{A: "node0/cpu0", B: late.ID, Kind: LinkMemBus, Latency: memBusLat, Bandwidth: memBusBW, Coherent: true}); err != nil {
		t.Fatal(err)
	}
	cpu, _ := topo.ComputeIndex("node0/cpu0")
	mi, _ := topo.MemoryIndex(late.ID)
	if v.BusyAt(mi) != 0 {
		t.Fatal("new device must read as drained")
	}
	if _, err := v.AccessAt(cpu, mi, 0, 64, memsim.Read, memsim.Sequential); err != nil {
		t.Fatal(err)
	}
	if v.BusyAt(mi) == 0 {
		t.Error("access to a late device must advance its queue")
	}
}
