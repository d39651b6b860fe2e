package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounters(t *testing.T) {
	r := NewRegistry()
	r.Add(LayerRegion, "allocs", 3)
	r.Add(LayerRegion, "allocs", 2)
	r.Add(LayerFault, "recoveries", 1)
	if got := r.Counter(LayerRegion, "allocs"); got != 5 {
		t.Errorf("allocs = %d, want 5", got)
	}
	if got := r.Counter(LayerFault, "recoveries"); got != 1 {
		t.Errorf("recoveries = %d, want 1", got)
	}
	if got := r.Counter(LayerApp, "missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Add(LayerApp, "x", 1) // must not panic
	r.Record(Span{})
	r.Reset()
	if r.Counter(LayerApp, "x") != 0 || r.Spans() != nil || r.Counters() != nil {
		t.Error("nil registry must behave as empty")
	}
	if r.Report() != "" {
		t.Error("nil registry report must be empty")
	}
}

func TestSpansAndAggregation(t *testing.T) {
	r := NewRegistry()
	r.Record(Span{Layer: LayerDevice, Job: "j", Task: "t1", Start: 0, End: 100})
	r.Record(Span{Layer: LayerDevice, Job: "j", Task: "t2", Start: 50, End: 150})
	r.Record(Span{Layer: LayerScheduler, Job: "j", Task: "t1", Start: 0, End: 10})
	byLayer := r.ByLayer()
	if byLayer[LayerDevice] != 200 {
		t.Errorf("device time = %v, want 200", byLayer[LayerDevice])
	}
	byTask := r.ByTask()
	if byTask["j/t1"] != 110 {
		t.Errorf("t1 time = %v, want 110", byTask["j/t1"])
	}
}

func TestSpanClampsNegative(t *testing.T) {
	r := NewRegistry()
	r.Record(Span{Layer: LayerApp, Start: 100, End: 50})
	if d := r.Spans()[0].Duration(); d != 0 {
		t.Errorf("inverted span duration = %v, want clamped 0", d)
	}
}

func TestReportDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Add(LayerRegion, "b", 1)
	r.Add(LayerApp, "a", 2)
	r.Record(Span{Layer: LayerDevice, Start: 0, End: time.Microsecond})
	rep := r.Report()
	if !strings.Contains(rep, "device") || !strings.Contains(rep, "region/b") {
		t.Errorf("report missing entries:\n%s", rep)
	}
	if rep != r.Report() {
		t.Error("report must be deterministic")
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	r.Add(LayerApp, "x", 1)
	r.Record(Span{Layer: LayerApp, End: 5})
	r.Reset()
	if r.Counter(LayerApp, "x") != 0 || len(r.Spans()) != 0 {
		t.Error("reset must clear everything")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Add(LayerDevice, "ops", 1)
				r.Record(Span{Layer: LayerDevice, Start: 0, End: 1})
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(LayerDevice, "ops"); got != 8000 {
		t.Errorf("ops = %d, want 8000", got)
	}
	if got := len(r.Spans()); got != 8000 {
		t.Errorf("spans = %d, want 8000", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(DefaultLatencyBounds()...)
	samples := []time.Duration{
		50 * time.Nanosecond, 90 * time.Nanosecond, // ≤100ns
		500 * time.Nanosecond,  // ≤1µs
		50 * time.Microsecond,  // ≤100µs
		100 * time.Millisecond, // tail
	}
	for _, s := range samples {
		h.Observe(s)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Max() != 100*time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
	mean := h.Mean()
	if mean < 20*time.Millisecond || mean > 21*time.Millisecond {
		t.Errorf("mean = %v, want ≈100.05ms/5", mean)
	}
	// Median falls in the (100ns, 1µs] bucket; the target rank (2.5 of 5)
	// sits halfway through its single sample, so the estimate interpolates
	// to the bucket midpoint: 100ns + 0.5·900ns.
	if q := h.Quantile(0.5); q != 550*time.Nanosecond {
		t.Errorf("p50 = %v, want 550ns interpolated", q)
	}
	if q := h.Quantile(1); q != 100*time.Millisecond {
		t.Errorf("p100 = %v, want max", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(time.Microsecond)
	if h.Mean() != 0 || h.Quantile(0.99) != 0 || h.Count() != 0 {
		t.Error("empty histogram must return zeros")
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("descending bounds must panic")
		}
	}()
	NewHistogram(time.Second, time.Millisecond)
}

func TestHistogramQuantileClamping(t *testing.T) {
	h := NewHistogram(time.Microsecond)
	h.Observe(time.Nanosecond)
	if h.Quantile(-1) != h.Quantile(0) {
		t.Error("q<0 must clamp to 0")
	}
	if h.Quantile(2) != h.Quantile(1) {
		t.Error("q>1 must clamp to 1")
	}
}

func TestExportChromeTrace(t *testing.T) {
	r := NewRegistry()
	r.Record(Span{Layer: LayerRuntime, Job: "j", Task: "t1", Name: "exec", Start: 1000, End: 5000})
	r.Record(Span{Layer: LayerDevice, Job: "j", Task: "t1", Name: "read", Start: 2000, End: 3000})
	var buf bytes.Buffer
	if err := r.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, meta int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			if e["dur"].(float64) <= 0 {
				t.Error("complete events must have positive duration")
			}
		case "M":
			meta++
		}
	}
	if complete != 2 {
		t.Errorf("complete events = %d, want 2", complete)
	}
	if meta < 3 { // 2 process names + ≥1 thread name
		t.Errorf("metadata events = %d, want ≥3", meta)
	}
	// Nil registry writes an empty array.
	var r2 *Registry
	buf.Reset()
	if err := r2.ExportChromeTrace(&buf); err != nil || buf.String() != "[]" {
		t.Errorf("nil registry trace = %q, %v", buf.String(), err)
	}
}

// TestExportChromeTraceGolden pins the exact trace bytes for a task whose
// spans cross two layers: each layer (pid) must carry its own thread_name
// meta event for the task, with tids numbered per pid. Before thread names
// were keyed per (layer, task), the second layer's track rendered unnamed.
func TestExportChromeTraceGolden(t *testing.T) {
	r := NewRegistry()
	r.Record(Span{Layer: LayerRuntime, Job: "j", Task: "a", Name: "exec", Start: 1000, End: 4000})
	r.Record(Span{Layer: LayerDevice, Job: "j", Task: "a", Name: "read", Start: 1500, End: 2500})
	r.Record(Span{Layer: LayerRuntime, Job: "j", Task: "b", Name: "exec", Start: 4000, End: 6000})
	r.Record(Span{Layer: LayerDevice, Job: "j", Task: "b", Name: "write", Start: 4500, End: 5000})
	var buf bytes.Buffer
	if err := r.ExportChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := `[` +
		`{"name":"process_name","ph":"M","pid":1,"args":{"name":"layer: runtime"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"j/a"}},` +
		`{"name":"exec","cat":"runtime","ph":"X","ts":1,"dur":3,"pid":1,"tid":1,"args":{"job":"j","task":"a"}},` +
		`{"name":"process_name","ph":"M","pid":2,"args":{"name":"layer: device"}},` +
		`{"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"j/a"}},` +
		`{"name":"read","cat":"device","ph":"X","ts":1.5,"dur":1,"pid":2,"tid":1,"args":{"job":"j","task":"a"}},` +
		`{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"j/b"}},` +
		`{"name":"exec","cat":"runtime","ph":"X","ts":4,"dur":2,"pid":1,"tid":2,"args":{"job":"j","task":"b"}},` +
		`{"name":"thread_name","ph":"M","pid":2,"tid":2,"args":{"name":"j/b"}},` +
		`{"name":"write","cat":"device","ph":"X","ts":4.5,"dur":0.5,"pid":2,"tid":2,"args":{"job":"j","task":"b"}}` +
		"]\n"
	if got := buf.String(); got != golden {
		t.Errorf("trace mismatch:\ngot:  %s\nwant: %s", got, golden)
	}
}

func TestRegistryObserveAndHist(t *testing.T) {
	r := NewRegistry()
	if r.Hist(LayerRuntime, "queue_wait") != nil {
		t.Error("Hist must be nil before any Observe")
	}
	r.Observe(LayerRuntime, "queue_wait", 5*time.Microsecond)
	r.Observe(LayerRuntime, "queue_wait", 2*time.Millisecond)
	r.Observe(LayerRuntime, "queue_wait", 80*time.Millisecond)
	h := r.Hist(LayerRuntime, "queue_wait")
	if h == nil {
		t.Fatal("Hist must return the implicitly created histogram")
	}
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
	if h.Max() != 80*time.Millisecond {
		t.Errorf("max = %v, want 80ms", h.Max())
	}
	// Rank 1.5 of 3 lands halfway through the (1ms, 10ms] bucket's single
	// sample: 1ms + 0.5·9ms.
	if p50 := h.Quantile(0.50); p50 != 5500*time.Microsecond {
		t.Errorf("p50 = %v, want 5.5ms interpolated", p50)
	}
	// Same (layer, name) accumulates into one histogram; a different layer
	// gets its own.
	r.Observe(LayerFault, "queue_wait", time.Second)
	if h.Count() != 3 {
		t.Error("different layer leaked into existing histogram")
	}
	if fh := r.Hist(LayerFault, "queue_wait"); fh == nil || fh.Count() != 1 {
		t.Error("per-layer histogram missing")
	}
}

func TestRegistryHistNilSafe(t *testing.T) {
	var r *Registry
	r.Observe(LayerRuntime, "x", time.Second) // must not panic
	if r.Hist(LayerRuntime, "x") != nil {
		t.Error("nil registry must report no histograms")
	}
}

func TestReportIncludesHistograms(t *testing.T) {
	r := NewRegistry()
	if strings.Contains(r.Report(), "histograms:") {
		t.Error("empty registry must omit the histograms section")
	}
	r.Observe(LayerRuntime, "queue_wait", 3*time.Millisecond)
	rep := r.Report()
	if !strings.Contains(rep, "histograms:") || !strings.Contains(rep, "runtime/queue_wait") {
		t.Errorf("report missing histogram section:\n%s", rep)
	}
	for _, field := range []string{"n=1", "p50=", "p99=", "max="} {
		if !strings.Contains(rep, field) {
			t.Errorf("report missing %q:\n%s", field, rep)
		}
	}
	r.Reset()
	if r.Hist(LayerRuntime, "queue_wait") != nil {
		t.Error("Reset must clear histograms")
	}
}

var testCounter = DeclareCounter(LayerRegion, "bytes_read")

// TestCounterHandleSharesNamedCounter: a declared handle and the string
// form address the same counter, Reset zeroes it without invalidating the
// handle, and a counter only appears in Counters once added to.
func TestCounterHandleSharesNamedCounter(t *testing.T) {
	r := NewRegistry()
	h := r.Handle(testCounter)
	if _, ok := r.Counters()["region/bytes_read"]; ok {
		t.Fatal("an untouched declared counter must not be reported")
	}
	h.Add(0)
	if v, ok := r.Counters()["region/bytes_read"]; !ok || v != 0 {
		t.Errorf("adding zero must report the counter at 0, got %d, %t", v, ok)
	}
	h.Add(3)
	r.Add(LayerRegion, "bytes_read", 4)
	if got := r.Counter(LayerRegion, "bytes_read"); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	r.Reset()
	if _, ok := r.Counters()["region/bytes_read"]; ok {
		t.Error("Reset must clear the counter")
	}
	h.Add(1)
	if got := r.Counter(LayerRegion, "bytes_read"); got != 1 {
		t.Errorf("handle after Reset = %d, want 1", got)
	}
	var nilReg *Registry
	nilReg.Handle(testCounter).Add(1) // must not panic
	if r.Handle(CounterID{}) != nil {
		t.Error("the zero CounterID must not alias a declared counter")
	}
}

// TestCounterDeclaredAfterRegistry: a counter declared after a registry was
// built still works through both forms.
func TestCounterDeclaredAfterRegistry(t *testing.T) {
	r := NewRegistry()
	late := DeclareCounter(LayerApp, "declared_late")
	r.Handle(late).Add(2)
	r.Add(LayerApp, "declared_late", 1)
	if got := r.Counter(LayerApp, "declared_late"); got != 3 {
		t.Errorf("late counter = %d, want 3", got)
	}
	if got := r.Counters()["app/declared_late"]; got != 3 {
		t.Errorf("Counters() late counter = %d, want 3", got)
	}
}

// TestCounterHandleConcurrent: handle bumps, string-form bumps and
// snapshots of one declared counter from several goroutines (run under
// -race) lose no update.
func TestCounterHandleConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := r.Handle(testCounter)
			for i := 0; i < 1000; i++ {
				if g%2 == 0 {
					h.Add(1)
				} else {
					r.Add(LayerRegion, "bytes_read", 1)
				}
				if i%100 == 0 {
					r.Counters()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter(LayerRegion, "bytes_read"); got != 8000 {
		t.Errorf("bytes_read = %d, want 8000", got)
	}
}

// TestCounterAddZeroAlloc gates the hot-path bump at zero allocations.
func TestCounterAddZeroAlloc(t *testing.T) {
	c := NewRegistry().Handle(testCounter)
	if n := testing.AllocsPerRun(100, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %.0f per call, want 0", n)
	}
}

// BenchmarkCounterAdd is one hot-path counter bump through a declared
// handle.
func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Handle(testCounter)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkRegistryAdd is the same bump through the string form.
func BenchmarkRegistryAdd(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(LayerRegion, "bytes_read", 1)
	}
}
