package region

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/topology"
)

// This file implements background memory tiering — the "reusable optimizer
// for various dataflow systems' data placement" the paper's §2.1 derives
// from ownership, in the spirit of TPP [40] and AIFM [48]: the runtime
// tracks per-region access heat and periodically (a) relieves pressure on
// over-full devices by demoting their coldest regions and (b) promotes hot
// regions whose current placement scores clearly worse than the best
// device currently available.
//
// Rebalancing is only possible *because* regions carry their requirements:
// any destination must still satisfy the region's declared properties, so
// tiering can never violate what the application asked for.

// RebalancePolicy tunes the tiering pass.
type RebalancePolicy struct {
	// HighWatermark triggers demotion when a device's utilization exceeds
	// it. Default 0.90.
	HighWatermark float64
	// LowWatermark is the demotion target. Default 0.70.
	LowWatermark float64
	// PromoteHeat is the minimum epoch access count for promotion
	// candidates. Default 8.
	PromoteHeat uint64
	// ScoreMargin is how much better (in props.Score units) a destination
	// must be to justify moving a hot region. Default 2.
	ScoreMargin float64
	// EvictWatermark triggers the cross-node eviction pass: when a device's
	// utilization still exceeds it after local demotion and the manager has
	// an Exporter, the sweep exports the device's coldest regions to the
	// remote pool until utilization falls to min(LowWatermark,
	// EvictWatermark). Zero disables eviction (the default) — regions then
	// never leave the node.
	EvictWatermark float64
	// EvictHeat is the maximum epoch access count an eviction victim may
	// have: hotter regions stay local no matter the pressure. Default 1.
	EvictHeat uint64
}

func (p RebalancePolicy) withDefaults() RebalancePolicy {
	if p.HighWatermark <= 0 {
		p.HighWatermark = 0.90
	}
	if p.LowWatermark <= 0 {
		p.LowWatermark = 0.70
	}
	if p.PromoteHeat == 0 {
		p.PromoteHeat = 8
	}
	if p.ScoreMargin == 0 {
		p.ScoreMargin = 2
	}
	if p.EvictHeat == 0 {
		p.EvictHeat = 1
	}
	return p
}

// RebalanceStats reports what a tiering pass did.
type RebalanceStats struct {
	Promoted   int
	Demoted    int
	BytesMoved int64
	// Exported counts regions evicted to the remote pool this pass, and
	// Recalled the exported regions pulled home because they ran hot again;
	// BytesExported/BytesRecalled are their payload volumes.
	Exported      int
	Recalled      int
	BytesExported int64
	BytesRecalled int64
	// Cost is the virtual time the migrations took (background work; the
	// caller decides whether to overlap or serialize it). Remote moves
	// charge their fabric verb time here — the sweep's clock, never a
	// serving job's.
	Cost time.Duration
}

// ownerCompute returns a deterministic representative compute device among
// a region's owners. Caller holds m.mu.
func ownerCompute(r *Region) string {
	best := ""
	for _, c := range r.owners {
		if best == "" || c < best {
			best = c
		}
	}
	return best
}

// addressableByAllOwners reports whether every owner's compute device can
// reach dev within the region's requirements. Caller holds m.mu.
func (m *Manager) addressableByAllOwners(r *Region, dev string) bool {
	req := r.req
	req.Capacity = 0
	for _, c := range r.owners {
		caps, ok := m.topo.EffectiveCaps(c, dev)
		if !ok {
			return false
		}
		if ok, _ := req.Match(caps); !ok {
			return false
		}
	}
	return true
}

// Rebalance runs one tiering epoch at virtual time now and halves every
// region's heat afterwards (exponential decay). Migrations are priced
// against the shared global device queues, so it must not run while epochs
// are serving; use RebalanceIn for a sweep concurrent with serving.
func (m *Manager) Rebalance(now time.Duration, pol RebalancePolicy) (RebalanceStats, error) {
	return m.RebalanceIn(nil, now, pol)
}

// RebalanceIn is Rebalance with the migrations priced through clk — an
// epoch or task view (topology.VClock) — instead of the global device
// queues. A maintenance sweep handed its own private epoch runs fully
// inside that epoch's virtual clock, leaving the global queues untouched,
// which is what makes the sweep safe to execute concurrently with serving:
// serving batches price their work in their own epochs and never observe
// the sweep's backlog. A nil clk restores the global-queue behavior.
func (m *Manager) RebalanceIn(clk topology.VClock, now time.Duration, pol RebalancePolicy) (RebalanceStats, error) {
	pol = pol.withDefaults()
	m.mu.Lock()
	defer m.mu.Unlock()
	var stats RebalanceStats

	// Deterministic region order: by id.
	ids := make([]ID, 0, len(m.regions))
	for id := range m.regions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Pass 1 — demotion: for every over-watermark device, move its coldest
	// regions to the best *other* matching device until below the low
	// watermark.
	for _, dev := range m.topo.Memories() {
		if dev.HardwareManaged {
			continue
		}
		if dev.Utilization() <= pol.HighWatermark {
			continue
		}
		// Coldest-first victims on this device.
		var victims []*Region
		for _, id := range ids {
			r := m.regions[id]
			if r != nil && !r.freed && !r.exported && r.device.ID == dev.ID {
				victims = append(victims, r)
			}
		}
		sort.Slice(victims, func(i, j int) bool {
			if victims[i].heat != victims[j].heat {
				return victims[i].heat < victims[j].heat
			}
			return victims[i].id < victims[j].id
		})
		for _, r := range victims {
			if dev.Utilization() <= pol.LowWatermark {
				break
			}
			comp := ownerCompute(r)
			dst, ok := m.bestOtherDevice(r, comp, dev.ID)
			if !ok {
				continue
			}
			done, err := m.migrateToLocked(r, comp, dst, now, clk)
			if err != nil {
				continue // best-effort: skip unmovable regions
			}
			stats.Demoted++
			stats.BytesMoved += r.size
			if done > now {
				stats.Cost += done - now
			}
		}
	}

	// Pass 2 — promotion: hot regions move when a clearly better device
	// has room. An exported region that ran hot is recalled home instead —
	// the sweep-driven counterpart of fetch-on-read, paying the fabric
	// verbs on the sweep's clock.
	for _, id := range ids {
		r := m.regions[id]
		if r == nil || r.freed || r.heat < pol.PromoteHeat {
			continue
		}
		if r.exported {
			if cost, err := m.recallLocked(r); err == nil {
				stats.Recalled++
				stats.BytesRecalled += r.size
				stats.Cost += cost
			}
			continue
		}
		comp := ownerCompute(r)
		curCaps, ok := m.topo.EffectiveCaps(comp, r.device.ID)
		if !ok {
			continue
		}
		req := r.req
		req.Capacity = r.blockSize
		best, err := m.placer.Place(req, comp)
		if err != nil || best == r.device.ID {
			continue
		}
		bestCaps, ok := m.topo.EffectiveCaps(comp, best)
		if !ok {
			continue
		}
		cmpReq := r.req
		cmpReq.Capacity = 0
		if cmpReq.Score(bestCaps)-cmpReq.Score(curCaps) < pol.ScoreMargin {
			continue
		}
		if !m.addressableByAllOwners(r, best) {
			continue
		}
		done, err := m.migrateToLocked(r, comp, best, now, clk)
		if err != nil {
			continue
		}
		stats.Promoted++
		stats.BytesMoved += r.size
		if done > now {
			stats.Cost += done - now
		}
	}

	// Pass 3 — eviction: a device still over the eviction watermark after
	// local demotion has run out of local tiers for its cold set; export
	// the coldest regions to the remote pool. Only regions at or below
	// EvictHeat leave — the sweep never exports the working set.
	if pol.EvictWatermark > 0 && m.exporter != nil {
		target := pol.LowWatermark
		if pol.EvictWatermark < target {
			target = pol.EvictWatermark
		}
		for _, dev := range m.topo.Memories() {
			if dev.HardwareManaged || dev.Utilization() <= pol.EvictWatermark {
				continue
			}
			var victims []*Region
			for _, id := range ids {
				r := m.regions[id]
				if r != nil && !r.freed && !r.exported && r.device.ID == dev.ID && r.heat <= pol.EvictHeat {
					victims = append(victims, r)
				}
			}
			sort.Slice(victims, func(i, j int) bool {
				if victims[i].heat != victims[j].heat {
					return victims[i].heat < victims[j].heat
				}
				return victims[i].id < victims[j].id
			})
			for _, r := range victims {
				if dev.Utilization() <= target {
					break
				}
				cost, err := m.exportLocked(r)
				if err != nil {
					break // pool out of capacity; stop hammering this device
				}
				stats.Exported++
				stats.BytesExported += r.size
				stats.Cost += cost
			}
		}
	}

	// Decay heat.
	for _, id := range ids {
		if r := m.regions[id]; r != nil {
			r.heat >>= 1
		}
	}
	m.reg.Handle(ctrPromotions).Add(int64(stats.Promoted))
	m.reg.Handle(ctrDemotions).Add(int64(stats.Demoted))
	m.reg.Handle(ctrRebalanceExports).Add(int64(stats.Exported))
	m.reg.Handle(ctrRebalanceRecalls).Add(int64(stats.Recalled))
	return stats, nil
}

// bestOtherDevice finds the highest-scoring device other than exclude that
// satisfies the region's requirements from comp and is addressable by all
// owners. Caller holds m.mu.
func (m *Manager) bestOtherDevice(r *Region, comp, exclude string) (string, bool) {
	req := r.req
	req.Capacity = r.blockSize
	best, bestScore := "", 0.0
	for _, dev := range m.topo.Memories() {
		if dev.ID == exclude || dev.HardwareManaged {
			continue
		}
		caps, ok := m.topo.EffectiveCaps(comp, dev.ID)
		if !ok {
			continue
		}
		if ok, _ := req.Match(caps); !ok {
			continue
		}
		if !m.addressableByAllOwners(r, dev.ID) {
			continue
		}
		s := req.Score(caps)
		if best == "" || s > bestScore {
			best, bestScore = dev.ID, s
		}
	}
	return best, best != ""
}

// Heat returns a region's current epoch access count (tests, reports).
func (m *Manager) Heat(id ID) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.regions[id]
	if !ok || r.freed {
		return 0, fmt.Errorf("%w: region %d", ErrFreed, id)
	}
	return r.heat, nil
}
