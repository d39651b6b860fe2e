package topology

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/memsim"
	"repro/internal/props"
)

// refCaps is EffectiveCaps as it was computed before the lookup table: the
// single-pair Dijkstra (route) folded into the device's raw spec.
func refCaps(t *Topology, computeID string, mem *memsim.Device) (props.Capabilities, bool) {
	path, ok := t.route(computeID, mem.ID)
	if !ok {
		return props.Capabilities{}, false
	}
	bw := mem.Bandwidth
	if path.Bandwidth < bw {
		bw = path.Bandwidth
	}
	remote := false
	for _, l := range path.Hops {
		if l.Kind == LinkNIC {
			remote = true
		}
	}
	return props.Capabilities{
		Latency:         mem.Latency + path.Latency,
		Bandwidth:       bw,
		Granularity:     mem.Granularity,
		ByteAddressable: mem.ByteAddressable(),
		Coherent:        mem.Coherent && path.Coherent,
		Sync:            mem.Sync && !remote,
		Persistent:      mem.Persistent,
		Remote:          remote,
		FreeCapacity:    mem.Free(),
	}, true
}

// tableTopologies are the testbeds the table must reproduce exactly.
func tableTopologies(t *testing.T) map[string]*Topology {
	t.Helper()
	noCache := DefaultSingleNode()
	noCache.DisableCache = true
	noFar := DefaultSingleNode()
	noFar.WithFarMem = false
	oneSocket := DefaultSingleNode()
	oneSocket.Sockets = 1
	out := map[string]*Topology{}
	for name, cfg := range map[string]SingleNodeConfig{
		"default": DefaultSingleNode(), "no-cache": noCache, "no-far-memory": noFar, "one-socket": oneSocket,
	} {
		topo, err := BuildSingleNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = topo
	}
	rack, err := BuildRack(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	out["rack-4x2"] = rack
	out["ties"] = tiesTopology(t)
	return out
}

// tiesTopology has only tied routes: two equal-latency, equal-hop paths
// c0→{sb,sa}→m0 (the lexicographic id decides; links are added in the
// other order) and equal-latency paths of one and two hops c0→m1,
// c0→sx→m1 (the hop count decides).
func tiesTopology(t *testing.T) *Topology {
	t.Helper()
	topo := New()
	if err := topo.AddCompute(&ComputeDevice{ID: "c0", Kind: CPU, Gops: 1}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"m0", "m1"} {
		d, err := memsim.NewDevice(id, memsim.DRAMSpec())
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.AddMemory(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []Link{
		{A: "c0", B: "sb", Latency: 5, Bandwidth: 1e9, Coherent: true},
		{A: "sb", B: "m0", Latency: 5, Bandwidth: 2e9},
		{A: "c0", B: "sa", Latency: 5, Bandwidth: 3e9},
		{A: "sa", B: "m0", Latency: 5, Bandwidth: 4e9, Coherent: true},
		{A: "c0", B: "sx", Latency: 5, Bandwidth: 1e9},
		{A: "sx", B: "m1", Latency: 5, Bandwidth: 1e9},
		{A: "c0", B: "m1", Latency: 10, Bandwidth: 5e9, Kind: LinkNIC},
	} {
		if err := topo.Connect(l); err != nil {
			t.Fatal(err)
		}
	}
	return topo
}

// checkAgainstDijkstra compares every compute×memory and compute×compute
// answer of the table (string and index forms) with the single-pair route.
func checkAgainstDijkstra(t *testing.T, name string, topo *Topology) {
	t.Helper()
	for ci, c := range topo.Computes() {
		for mi, m := range topo.Memories() {
			want, wantOK := topo.route(c.ID, m.ID)
			got, ok := topo.Path(c.ID, m.ID)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Path(%s, %s) = %+v, %t; Dijkstra %+v, %t", name, c.ID, m.ID, got, ok, want, wantOK)
			}
			if e := topo.Reach(ci, mi); e.OK != wantOK || !reflect.DeepEqual(e.Path, want) || e.Mem != m {
				t.Errorf("%s: Reach(%d, %d) disagrees with Dijkstra for %s→%s", name, ci, mi, c.ID, m.ID)
			}
			wantCaps, wantOK := refCaps(topo, c.ID, m)
			caps, ok := topo.EffectiveCaps(c.ID, m.ID)
			if ok != wantOK || caps != wantCaps {
				t.Errorf("%s: EffectiveCaps(%s, %s) = %+v, %t; Dijkstra %+v, %t", name, c.ID, m.ID, caps, ok, wantCaps, wantOK)
			}
			if e := topo.Reach(ci, mi); e.OK && e.Live() != wantCaps {
				t.Errorf("%s: Reach(%d, %d).Live() = %+v; Dijkstra %+v", name, ci, mi, e.Live(), wantCaps)
			}
		}
		for cj, d := range topo.Computes() {
			want, wantOK := topo.route(c.ID, d.ID)
			got, ok := topo.Path(c.ID, d.ID)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Path(%s, %s) = %+v; Dijkstra %+v", name, c.ID, d.ID, got, want)
			}
			if got, ok := topo.ComputePath(ci, cj); ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: ComputePath(%d, %d) = %+v; Dijkstra %+v", name, ci, cj, got, want)
			}
		}
	}
}

// TestTableMatchesDijkstra: every table answer — hops, latency, bandwidth,
// coherence, and the folded capabilities — equals the per-pair Dijkstra's.
func TestTableMatchesDijkstra(t *testing.T) {
	for name, topo := range tableTopologies(t) {
		checkAgainstDijkstra(t, name, topo)
	}
}

// TestTableUnreachablePairs: a device with no route reads as absent, in
// both the table and the reference.
func TestTableUnreachablePairs(t *testing.T) {
	topo := testbed(t)
	island, err := memsim.NewDevice("island/dram0", memsim.DRAMSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.AddMemory(island); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddCompute(&ComputeDevice{ID: "island/cpu0", Kind: CPU, Gops: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := topo.EffectiveCaps("node0/cpu0", island.ID); ok {
		t.Error("unconnected memory must be unreachable")
	}
	if _, ok := topo.Path("island/cpu0", "node0/cpu0"); ok {
		t.Error("unconnected compute must be unreachable")
	}
	ci, _ := topo.ComputeIndex("node0/cpu0")
	mi, _ := topo.MemoryIndex(island.ID)
	for name, clk := range map[string]VClock{"epoch": topo.NewEpoch(), "view": topo.NewTaskView()} {
		if _, err := clk.AccessAt(ci, mi, 0, 64, memsim.Read, memsim.Sequential); err == nil {
			t.Errorf("%s: access to an unreachable device must fail", name)
		}
	}
	if _, err := topo.AccessAt(ci, mi, 0, 64, memsim.Read, memsim.Sequential); err == nil {
		t.Error("global-queue access to an unreachable device must fail")
	}
	checkAgainstDijkstra(t, "island", topo)
}

// TestTableInvalidation: building a topology builds no table, and
// AddMemory, Connect and AddCompute after a first lookup must all be
// visible to the next lookup.
func TestTableInvalidation(t *testing.T) {
	topo := testbed(t)
	if topo.tab.Load() != nil {
		t.Fatal("building a topology must not build the table")
	}
	before, ok := topo.Path("node0/cpu1", "node0/dram0")
	if !ok {
		t.Fatal("no cross-socket route")
	}
	if _, ok := topo.EffectiveCaps("node0/cpu1", "node0/extra"); ok {
		t.Fatal("extra device must not exist yet")
	}

	extra, err := memsim.NewDevice("node0/extra", memsim.DRAMSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.AddMemory(extra); err != nil {
		t.Fatal(err)
	}
	if topo.tab.Load() != nil {
		t.Fatal("AddMemory must drop the table")
	}
	if err := topo.Connect(Link{A: "node0/cpu1", B: extra.ID, Kind: LinkMemBus, Latency: memBusLat, Bandwidth: memBusBW, Coherent: true}); err != nil {
		t.Fatal(err)
	}
	if _, ok := topo.EffectiveCaps("node0/cpu1", extra.ID); !ok {
		t.Error("AddMemory+Connect after a lookup is not visible")
	}

	// A direct link shorter than the UPI detour reroutes cpu1→dram0.
	if err := topo.Connect(Link{A: "node0/cpu1", B: "node0/dram0", Kind: LinkMemBus, Latency: time.Nanosecond, Bandwidth: memBusBW, Coherent: true}); err != nil {
		t.Fatal(err)
	}
	after, _ := topo.Path("node0/cpu1", "node0/dram0")
	if len(after.Hops) != 1 || after.Latency >= before.Latency {
		t.Errorf("Connect after a lookup not visible: route %+v (was %+v)", after, before)
	}

	if err := topo.AddCompute(&ComputeDevice{ID: "node0/cpu9", Kind: CPU, Gops: 1}); err != nil {
		t.Fatal(err)
	}
	if err := topo.Connect(Link{A: "node0/cpu9", B: "node0/dram0", Kind: LinkMemBus, Latency: memBusLat, Bandwidth: memBusBW, Coherent: true}); err != nil {
		t.Fatal(err)
	}
	if _, ok := topo.EffectiveCaps("node0/cpu9", "node0/dram0"); !ok {
		t.Error("AddCompute after a lookup is not visible")
	}
	checkAgainstDijkstra(t, "mutated", topo)
}

// TestTableConcurrentFirstLookup: eight goroutines racing to build the same
// rows all read complete, correct rows (run under -race).
func TestTableConcurrentFirstLookup(t *testing.T) {
	ref := testbed(t)
	topo := testbed(t)
	computes, memories := ref.Computes(), ref.Memories()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range computes {
				c := computes[(i+g)%len(computes)]
				for _, m := range memories {
					want, _ := ref.route(c.ID, m.ID)
					got, _ := topo.Path(c.ID, m.ID)
					if !reflect.DeepEqual(got, want) {
						errs <- c.ID + "→" + m.ID
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent first lookup returned a wrong route for %s", e)
	}
}

// TestEffectiveCapsFreeCapacityIsLive: the table caches static
// capabilities only; free capacity tracks every reservation.
func TestEffectiveCapsFreeCapacityIsLive(t *testing.T) {
	topo := testbed(t)
	dram, _ := topo.Memory("node0/dram0")
	before, _ := topo.EffectiveCaps("node0/cpu0", dram.ID)
	if err := dram.Reserve(4096); err != nil {
		t.Fatal(err)
	}
	defer dram.Release(4096)
	after, _ := topo.EffectiveCaps("node0/cpu0", dram.ID)
	if after.FreeCapacity != before.FreeCapacity-4096 {
		t.Errorf("FreeCapacity %d after reserving 4096 of %d", after.FreeCapacity, before.FreeCapacity)
	}
}

// TestReachAdmitsIsMatchesOnLiveCaps: Admits, which reads free capacity
// only after the static checks pass, decides exactly like Matches on the
// live capabilities — for every region class, capacity and pair.
func TestReachAdmitsIsMatchesOnLiveCaps(t *testing.T) {
	topo := testbed(t)
	dram, _ := topo.Memory("node0/dram0")
	if err := dram.Reserve(dram.Capacity - 4096); err != nil { // leave one page
		t.Fatal(err)
	}
	for _, class := range []props.RegionClass{props.PrivateScratch, props.GlobalScratch, props.GlobalState, props.Transfer, props.Custom} {
		for _, capacity := range []int64{0, 4096, 8192, 1 << 40} {
			req := class.Defaults()
			req.Capacity = capacity
			for ci := 0; ci < topo.NumComputes(); ci++ {
				for mi := 0; mi < topo.NumMemories(); mi++ {
					e := topo.Reach(ci, mi)
					if want := e.OK && req.Matches(e.Live()); e.Admits(req) != want {
						t.Errorf("%s cap %d, %s→%s: Admits %t, Matches %t", class, capacity,
							topo.ComputeAt(ci).ID, e.Mem.ID, !want, want)
					}
				}
			}
		}
	}
}

// TestEffectiveCapsZeroAlloc gates the lookup at zero allocations.
func TestEffectiveCapsZeroAlloc(t *testing.T) {
	topo := testbed(t)
	topo.EffectiveCaps("node0/gpu0", "node0/dram0") // build the row
	if n := testing.AllocsPerRun(100, func() {
		topo.EffectiveCaps("node0/gpu0", "node0/dram0")
	}); n != 0 {
		t.Errorf("EffectiveCaps allocates %.0f per call, want 0", n)
	}
}

var sinkCaps props.Capabilities

// BenchmarkEffectiveCaps is one compute×memory lookup through the
// string-keyed form, cycling over every pair of the default testbed.
func BenchmarkEffectiveCaps(b *testing.B) {
	topo, err := BuildSingleNode(DefaultSingleNode())
	if err != nil {
		b.Fatal(err)
	}
	var pairs [][2]string
	for _, c := range topo.Computes() {
		for _, m := range topo.Memories() {
			pairs = append(pairs, [2]string{c.ID, m.ID})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		sinkCaps, _ = topo.EffectiveCaps(p[0], p[1])
	}
}
