package topology

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/memsim"
	"repro/internal/props"
)

// This file holds the dense-ID lookup table behind every hot-path question
// the runtime asks the topology: "how does compute device c reach memory
// device m, and what does m look like from there?" (placement, region
// access, coherence pricing) and "what does it cost to move data from c to
// c'?" (HEFT). Devices are interned to insertion-order indices when they are
// added; the table holds one immutable row per compute device — its routed
// path and static capabilities to every memory device, and its route to
// every compute device — and is read without locks.
//
// Rows are built lazily, each by one single-source route search on first
// use, and published with a compare-and-swap: racing first lookups may both
// build a row, but they build identical rows and readers only ever see a
// complete one. Nothing is built at construction, so building a topology
// (and the servers on it) costs no routing at all. AddCompute, AddMemory and
// Connect drop the table; the next lookup starts a fresh one. A topology must
// not be mutated concurrently with lookups: its device maps are not
// synchronized either.
//
// FreeCapacity is deliberately not in the table: it changes with every
// allocation, so EffectiveCaps, Reach.Live and Reach.Admits read it from the
// device's meter.

// Reach is one compute→memory table entry: the routed path and the
// capabilities the memory device presents across it. Entries are shared and
// immutable; callers must not modify them.
type Reach struct {
	Mem  *memsim.Device
	Path PathInfo
	// Caps are the static capabilities; FreeCapacity is left zero (Live
	// fills it in).
	Caps props.Capabilities
	// OK reports whether a route exists at all.
	OK bool
}

// Live returns the entry's capabilities with the device's current free
// capacity filled in.
func (e *Reach) Live() props.Capabilities {
	c := e.Caps
	c.FreeCapacity = e.Mem.Free()
	return c
}

// Admits reports whether the entry's device, as seen across this route,
// satisfies req's hard constraints: req.Matches on the live capabilities,
// but reading the device's free capacity (a lock) only for devices whose
// static capabilities already match.
func (e *Reach) Admits(req props.Requirements) bool {
	if !e.OK {
		return false
	}
	static := e.Caps
	static.FreeCapacity = math.MaxInt64
	return req.Matches(static) && (req.Capacity <= 0 || e.Mem.Free() >= req.Capacity)
}

// table holds one lazily published row per compute device.
type table struct {
	rows []atomic.Pointer[row]
}

// row is one compute device's view of the whole graph.
type row struct {
	mem  []Reach    // by memory index
	comp []pathInfo // by compute index
}

type pathInfo struct {
	info PathInfo
	ok   bool
}

// Row returns compute device ci's table row: one entry per memory device,
// indexed by memory index. The slice is shared; callers must not modify it.
func (t *Topology) Row(ci int) []Reach { return t.row(ci).mem }

// Reach returns the table entry for compute ci and memory mi.
func (t *Topology) Reach(ci, mi int) *Reach { return &t.row(ci).mem[mi] }

// ComputePath returns the route between two compute devices by index — the
// interconnect HEFT prices a predecessor's output across.
func (t *Topology) ComputePath(ci, cj int) (PathInfo, bool) {
	p := t.row(ci).comp[cj]
	return p.info, p.ok
}

// row returns compute device ci's row, building and publishing it (and the
// table itself) on first use.
func (t *Topology) row(ci int) *row {
	tab := t.tab.Load()
	if tab == nil {
		tab = &table{rows: make([]atomic.Pointer[row], len(t.computes))}
		if !t.tab.CompareAndSwap(nil, tab) {
			tab = t.tab.Load()
		}
	}
	slot := &tab.rows[ci]
	if r := slot.Load(); r != nil {
		return r
	}
	r := t.buildRow(ci)
	if !slot.CompareAndSwap(nil, r) {
		r = slot.Load()
	}
	return r
}

// buildRow routes from compute device ci to every vertex once and folds the
// results into a row.
func (t *Topology) buildRow(ci int) *row {
	from := t.computes[ci].ID
	paths := t.routeFrom(from)
	r := &row{mem: make([]Reach, len(t.memories)), comp: make([]pathInfo, len(t.computes))}
	for mi, mem := range t.memories {
		p, ok := paths(mem.ID)
		r.mem[mi] = Reach{Mem: mem, Path: p, OK: ok}
		if ok {
			r.mem[mi].Caps = staticCaps(mem, p)
		}
	}
	for cj, c := range t.computes {
		p, ok := paths(c.ID)
		r.comp[cj] = pathInfo{info: p, ok: ok}
	}
	return r
}

// routeFrom is route run to exhaustion from one source: the same Dijkstra
// with the same (latency, hops, id) extraction order and strict-improvement
// relaxation, so every target's predecessor chain — and thus its path — is
// exactly what route(from, target) returns. (route stops when it extracts
// its target; no later extraction can strictly improve an extracted vertex,
// so running on changes nothing it saw.) The returned function reconstructs
// the path to any vertex.
func (t *Topology) routeFrom(from string) func(to string) (PathInfo, bool) {
	// Vertices sorted by id, so "first minimum in index order" is the
	// lexicographic tie-break.
	names := make([]string, 0, len(t.adj)+1)
	names = append(names, from)
	for v := range t.adj {
		if v != from {
			names = append(names, v)
		}
	}
	sort.Strings(names)
	idx := make(map[string]int, len(names))
	for i, v := range names {
		idx[v] = i
	}
	type state struct {
		lat     time.Duration
		hops    int
		seen    bool // has a tentative distance
		visited bool
		prev    Link
	}
	st := make([]state, len(names))
	st[idx[from]].seen = true
	for {
		cur := -1
		for v := range st {
			s := &st[v]
			if !s.seen || s.visited {
				continue
			}
			if cur < 0 || s.lat < st[cur].lat || (s.lat == st[cur].lat && s.hops < st[cur].hops) {
				cur = v
			}
		}
		if cur < 0 {
			break
		}
		st[cur].visited = true
		for _, l := range t.adj[names[cur]] {
			nd := state{lat: st[cur].lat + l.Latency, hops: st[cur].hops + 1}
			b := &st[idx[l.B]]
			if !b.seen || nd.lat < b.lat || (nd.lat == b.lat && nd.hops < b.hops) {
				b.lat, b.hops, b.seen, b.prev = nd.lat, nd.hops, true, l
			}
		}
	}
	return func(to string) (PathInfo, bool) {
		v, ok := idx[to]
		if !ok || !st[v].seen {
			return PathInfo{}, false
		}
		var hops []Link
		for v != idx[from] {
			l := st[v].prev
			hops = append(hops, l)
			v = idx[l.A]
		}
		return foldPath(hops), true
	}
}

// foldPath reverses a target-to-source hop list into source-to-target order
// and sums it into a PathInfo.
func foldPath(hops []Link) PathInfo {
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	info := PathInfo{Hops: hops, Bandwidth: math.Inf(1), Coherent: true}
	for _, l := range hops {
		info.Latency += l.Latency
		if l.Bandwidth < info.Bandwidth {
			info.Bandwidth = l.Bandwidth
		}
		if !l.Coherent {
			info.Coherent = false
		}
	}
	return info
}
