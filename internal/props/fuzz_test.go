package props

import (
	"math"
	"testing"
	"time"
)

// FuzzMatches: the allocation-free Matches placers call must agree with
// Match — the diagnostic form — on every requirement/capability pair,
// Match's violation list must be empty exactly when the pair matches, and
// Score must ignore FreeCapacity. The
// seed corpus (testdata/fuzz/FuzzMatches) covers each hard constraint's
// boundary, the MaxLatency override, out-of-range Tri and LatencyClass
// values, and NaN bandwidths.
func FuzzMatches(f *testing.F) {
	f.Add(int64(4096), uint8(LatencyLow), int64(0), 0.0, uint8(Require), uint8(Any), uint8(Forbid), uint8(Require),
		int64(100), 200e9, uint8(0b10110), int64(4096))
	f.Fuzz(func(t *testing.T, capacity int64, class uint8, maxLat int64, minBW float64, persistent, coherent, sync, byteAddr uint8,
		latency int64, bandwidth float64, flags uint8, free int64) {
		r := Requirements{
			Capacity: capacity, Latency: LatencyClass(class), MaxLatency: time.Duration(maxLat), MinBandwidth: minBW,
			Persistent: Tri(persistent), Coherent: Tri(coherent), Sync: Tri(sync), ByteAddr: Tri(byteAddr),
		}
		c := Capabilities{
			Latency: time.Duration(latency), Bandwidth: bandwidth, FreeCapacity: free,
			ByteAddressable: flags&1 != 0, Coherent: flags&2 != 0, Sync: flags&4 != 0,
			Persistent: flags&8 != 0, Remote: flags&16 != 0,
		}
		ok, vs := r.Match(c)
		if got := r.Matches(c); got != ok {
			t.Fatalf("Matches = %t, Match = %t (%v) for %+v against %+v", got, ok, vs, r, c)
		}
		if ok != (len(vs) == 0) {
			t.Fatalf("Match = %t with violations %v", ok, vs)
		}
		// Placers score cached table capabilities: Score must not read
		// FreeCapacity.
		other := c
		other.FreeCapacity = ^free
		if a, b := r.Score(c), r.Score(other); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("Score depends on FreeCapacity: %v vs %v", a, b)
		}
	})
}

// TestMatchesZeroAlloc gates the placer's per-candidate check at zero
// allocations, including on a mismatch (where Match builds strings).
func TestMatchesZeroAlloc(t *testing.T) {
	r := Requirements{Capacity: 1 << 30, Latency: LatencyLow, Persistent: Require}
	c := Capabilities{Latency: time.Microsecond, FreeCapacity: 1}
	if n := testing.AllocsPerRun(100, func() { r.Matches(c) }); n != 0 {
		t.Errorf("Matches allocates %.0f per call, want 0", n)
	}
}
