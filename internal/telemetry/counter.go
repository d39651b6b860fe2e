package telemetry

import (
	"sync"
	"sync/atomic"
)

// Counters come in two forms. Hot paths bump a *Counter handle: an atomic
// int64 they reach through a CounterID declared once at package level, so
// a bump takes no lock, builds no key, and a misspelt counter is a compile
// error instead of a silently new series. The string form — Registry.Add
// and Registry.Counter — remains for callers that name counters at run
// time; it resolves to the same handle when the name was declared.
//
// Declared counters live in one array per Registry, allocated in one piece
// by NewRegistry: nothing is registered per component, so building a
// runtime costs no counter work.

// CounterID names a counter declared with DeclareCounter. The zero
// CounterID names no counter: its handle is a nil (no-op) *Counter, so an
// undeclared id can never bump another counter's cell.
type CounterID struct{ slot1 int32 } // slot + 1

// metricKey names a counter or histogram: its layer and name.
type metricKey struct {
	layer Layer
	name  string
}

// declared is the process-wide counter catalogue: slot → key, and the
// copy-on-write key → slot index the string form reads without a lock.
var declared struct {
	mu    sync.Mutex
	keys  []metricKey
	index atomic.Pointer[map[metricKey]int32]
}

// DeclareCounter declares the counter layer/name and returns its id.
// Declaring the same name twice returns the same id. Call it from
// package-level variable declarations.
func DeclareCounter(layer Layer, name string) CounterID {
	declared.mu.Lock()
	defer declared.mu.Unlock()
	k := metricKey{layer, name}
	old := declared.index.Load()
	if old != nil {
		if slot, ok := (*old)[k]; ok {
			return CounterID{slot + 1}
		}
	}
	next := make(map[metricKey]int32, len(declared.keys)+1)
	if old != nil {
		for key, slot := range *old {
			next[key] = slot
		}
	}
	slot := int32(len(declared.keys))
	declared.keys = append(declared.keys, k)
	next[k] = slot
	declared.index.Store(&next)
	return CounterID{slot + 1}
}

// declaredSlot returns the slot of a declared counter name.
func declaredSlot(k metricKey) (int32, bool) {
	index := declared.index.Load()
	if index == nil {
		return 0, false
	}
	slot, ok := (*index)[k]
	return slot, ok
}

// Counter is one counter's live value. A nil *Counter (from a nil
// Registry) is a no-op.
type Counter struct {
	v atomic.Int64
	// touched latches on the first Add since the last Reset: only touched
	// counters are reported, so adding zero still makes a counter appear.
	touched atomic.Bool
}

// Add increments the counter. Nil-safe.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	if !c.touched.Load() {
		c.touched.Store(true)
	}
	c.v.Add(delta)
}

// Load returns the counter's value (0 for nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) reset() {
	c.v.Store(0)
	c.touched.Store(false)
}

// Handle returns the registry's handle for a declared counter. Nil-safe:
// a nil registry or the zero CounterID yields a nil (no-op) handle.
func (r *Registry) Handle(id CounterID) *Counter {
	slot := int(id.slot1) - 1
	if r == nil || slot < 0 {
		return nil
	}
	if slot < len(r.fixed) {
		return &r.fixed[slot]
	}
	// Declared after this registry was built.
	declared.mu.Lock()
	k := declared.keys[slot]
	declared.mu.Unlock()
	return r.named(k, true)
}

// named resolves a counter by name: the declared slot when there is one,
// otherwise the registry's own map of run-time names (created on demand
// when create is set).
func (r *Registry) named(k metricKey, create bool) *Counter {
	if slot, ok := declaredSlot(k); ok && int(slot) < len(r.fixed) {
		return &r.fixed[slot]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.extra[k]
	if c == nil && create {
		c = new(Counter)
		r.extra[k] = c
	}
	return c
}
