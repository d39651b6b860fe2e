package paper

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/placement"
	"repro/internal/props"
	"repro/internal/region"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// table1Devices maps Table 1 rows to testbed device instances, in the
// paper's row order.
var table1Devices = []struct {
	row string
	id  string
}{
	{"Cache", "node0/cache0"},
	{"HBM", "node0/hbm0"},
	{"DRAM", "node0/dram0"},
	{"PMem", "node0/pmem0"},
	{"CXL-DRAM", "node0/cxl0"},
	{"Disagg. Mem.", "memnode0/far0"},
	{"SSD", "node0/ssd0"},
	{"HDD", "node0/hdd0"},
}

// Table1 regenerates "Memory device properties as seen from a CPU": for
// each device the effective latency (one 64 B access issued by cpu0, path
// included), the measured sustained bandwidth (one 64 MiB streaming read),
// granularity, attachment, sync capability, and persistence.
func Table1() (*Artifact, error) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		return nil, err
	}
	const cpu = "node0/cpu0"
	tbl := &table{header: []string{"Name", "Bandwidth", "Latency", "Gran.", "Attached", "Sync", "Persist."}}
	metrics := map[string]float64{}
	for _, d := range table1Devices {
		dev, ok := topo.Memory(d.id)
		if !ok {
			return nil, fmt.Errorf("paper: testbed missing %s", d.id)
		}
		caps, ok := topo.EffectiveCaps(cpu, d.id)
		if !ok {
			return nil, fmt.Errorf("paper: %s unreachable from %s", d.id, cpu)
		}
		// Measured latency: one granule-sized sequential access.
		dev.ResetQueue()
		small, err := topo.AccessTime(cpu, d.id, 0, int64(dev.Granularity), memsim.Read, memsim.Sequential)
		if err != nil {
			return nil, err
		}
		// Measured bandwidth: one 64 MiB stream, minus the latency part.
		dev.ResetQueue()
		const streamSize = 64 << 20
		big, err := topo.AccessTime(cpu, d.id, 0, streamSize, memsim.Read, memsim.Sequential)
		if err != nil {
			return nil, err
		}
		bw := float64(streamSize) / big.Seconds()
		dev.ResetQueue()
		tbl.add(d.row, fmtBW(bw), fmtDur(float64(small)), fmt.Sprintf("%dB", dev.Granularity),
			dev.Attach.String(), yesNo(caps.Sync), yesNo(dev.Persistent))
		metrics["latency_ns/"+d.row] = float64(small)
		metrics["bandwidth_bps/"+d.row] = bw
	}
	return &Artifact{
		ID:    "table1",
		Title: "Table 1: memory device properties as seen from a CPU (measured on the simulator)",
		Text:  tbl.String(), Metrics: metrics,
	}, nil
}

// Table2 regenerates "Common Memory Regions": the three predefined classes
// are allocated from a CPU through the best-fit optimizer; the table shows
// the properties each class demands, the device the runtime chose, and the
// measured access cost.
func Table2() (*Artifact, error) {
	topo, err := topology.BuildSingleNode(topology.DefaultSingleNode())
	if err != nil {
		return nil, err
	}
	mgr, err := region.NewManager(region.Config{
		Topology: topo, Placer: placement.NewBestFit(topo), Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	const cpu = "node0/cpu0"
	tbl := &table{header: []string{"Name", "Properties", "Purpose", "Placed on", "Access"}}
	metrics := map[string]float64{}
	rows := []struct {
		class   props.RegionClass
		props   string
		purpose string
	}{
		{props.PrivateScratch, "{noncoherent, sync}", "Thread-local data"},
		{props.GlobalState, "{coherent, sync}", "Syncing tasks"},
		{props.GlobalScratch, "{coherent, async}", "Data exchange"},
	}
	for _, r := range rows {
		h, err := mgr.Alloc(region.Spec{
			Name: r.class.String(), Class: r.class, Size: 1 << 20,
			Owner: "paper/table2", Compute: cpu,
		})
		if err != nil {
			return nil, fmt.Errorf("paper: alloc %s: %w", r.class, err)
		}
		dev, err := h.DeviceID()
		if err != nil {
			return nil, err
		}
		buf := make([]byte, 4096)
		var done time.Duration
		if r.class == props.GlobalScratch {
			f := h.ReadAsync(0, 0, buf)
			done, err = f.Await(0)
		} else {
			done, err = h.ReadAt(0, 0, buf)
		}
		if err != nil {
			return nil, err
		}
		tbl.add(r.class.String(), r.props, r.purpose, dev, fmtDur(float64(done)))
		metrics["access_ns/"+r.class.String()] = float64(done)
		if err := h.Release(); err != nil {
			return nil, err
		}
	}
	return &Artifact{
		ID:    "table2",
		Title: "Table 2: common Memory Regions, as placed by the runtime from a CPU",
		Text:  tbl.String(), Metrics: metrics,
	}, nil
}

// Table3 regenerates "How applications may use memory regions": the four
// application workloads run end-to-end and the table reports, per app, the
// physical device the runtime picked for its Private Scratch, Global State,
// and Global Scratch exemplars.
func Table3() (*Artifact, error) {
	rt, err := core.New(core.ExecConfig{})
	if err != nil {
		return nil, err
	}
	type row struct {
		app     string
		labels  [3]string // private, global state, global scratch
		tasks   [3]string
		purpose [3]string
	}
	rows := []row{
		{app: "DBMS", labels: [3]string{"group-ht", "admission-latch", "agg-index"},
			tasks:   [3]string{"hash-aggregate", "scan", "hash-aggregate"},
			purpose: [3]string{"operator state", "latches", "transient index"}},
		{app: "ML/AI", labels: [3]string{"weights", "worker-state", "sample-cache"},
			tasks:   [3]string{"train", "preprocess", "preprocess"},
			purpose: [3]string{"training state", "worker state", "cached transf. data"}},
		{app: "HPC", labels: [3]string{"grid-a", "job-meta", "result-field"},
			tasks:   [3]string{"relax", "relax", "publish"},
			purpose: [3]string{"node-local memory", "job metadata", "blob storage"}},
		{app: "Streaming", labels: [3]string{"recv-buffer", "cluster-state", "result-cache"},
			tasks:   [3]string{"source", "window-aggregate", "sink"},
			purpose: [3]string{"recv buffer", "cluster state", "result cache"}},
	}
	runs := map[string]*core.Report{}
	for _, build := range []struct {
		app string
		run func() (*core.Report, error)
	}{
		{"DBMS", func() (*core.Report, error) { return rt.Run(workload.DBMS(workload.DefaultDBMS())) }},
		{"ML/AI", func() (*core.Report, error) { return rt.Run(workload.ML(workload.DefaultML())) }},
		{"HPC", func() (*core.Report, error) { return rt.Run(workload.HPC(workload.DefaultHPC())) }},
		{"Streaming", func() (*core.Report, error) { return rt.Run(workload.StreamWindow(workload.DefaultStream(), 0)) }},
	} {
		rep, err := build.run()
		if err != nil {
			return nil, fmt.Errorf("paper: %s: %w", build.app, err)
		}
		runs[build.app] = rep
	}
	tbl := &table{header: []string{"App", "Region", "Role (Table 3 cell)", "Label", "Placed on"}}
	metrics := map[string]float64{}
	classes := [3]string{"Priv. Scratch", "Glob. State", "Glob. Scratch"}
	placedCount := 0
	for _, r := range rows {
		rep := runs[r.app]
		for i := 0; i < 3; i++ {
			dev := rep.Tasks[r.tasks[i]].Regions[r.labels[i]]
			if dev == "" {
				dev = "(not recorded)"
			} else {
				placedCount++
			}
			tbl.add(r.app, classes[i], r.purpose[i], r.labels[i], dev)
		}
	}
	metrics["placements"] = float64(placedCount)
	return &Artifact{
		ID:    "table3",
		Title: "Table 3: application usage of memory regions (devices chosen by the runtime)",
		Text:  tbl.String(), Metrics: metrics,
	}, nil
}
