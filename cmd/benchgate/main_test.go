package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture writes benchmark result lines as a test2json stream and returns
// its path.
func capture(t *testing.T, lines ...string) string {
	t.Helper()
	var b strings.Builder
	for _, l := range lines {
		ev, err := json.Marshal(struct{ Action, Output string }{"output", l + "\n"})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(ev)
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchNameStripsGOMAXPROCSSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkServeOverlap/overlap-2":     "BenchmarkServeOverlap/overlap",
		"BenchmarkServeSharded/shards=4-16":   "BenchmarkServeSharded/shards=4",
		"BenchmarkServeOverlap/overlap":       "BenchmarkServeOverlap/overlap",
		"BenchmarkServeSharded/shards=4":      "BenchmarkServeSharded/shards=4",
		"BenchmarkClusterRebalance":           "BenchmarkClusterRebalance",
		"BenchmarkLoadgen/poisson/shards=2-8": "BenchmarkLoadgen/poisson/shards=2",
		"BenchmarkOdd-":                       "BenchmarkOdd-",
	} {
		if got := benchName(in); got != want {
			t.Errorf("benchName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSuffixedRunGatesAgainstUnsuffixedBaseline is the multi-core case: a
// baseline captured at GOMAXPROCS=1 has no suffix, the current run does,
// and the gate must still compare (and catch a regression).
func TestSuffixedRunGatesAgainstUnsuffixedBaseline(t *testing.T) {
	units := map[string]bool{"jobs/s": true}
	base, err := parse(capture(t, "BenchmarkServeOverlap/overlap \t 2\t 100 ns/op\t 140.0 jobs/s"), units)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		line       string
		wantFailed bool
	}{
		{"BenchmarkServeOverlap/overlap-2 \t 2\t 100 ns/op\t 150.0 jobs/s", false},
		{"BenchmarkServeOverlap/overlap \t 2\t 100 ns/op\t 150.0 jobs/s", false},
		{"BenchmarkServeOverlap/overlap-8 \t 2\t 100 ns/op\t 100.0 jobs/s", true},
	} {
		cur, err := parse(capture(t, tc.line), units)
		if err != nil {
			t.Fatal(err)
		}
		compared, failed := compare(base, cur, 0.10)
		if compared != 1 || failed != tc.wantFailed {
			t.Errorf("%q: compared=%d failed=%v, want 1 %v", tc.line, compared, failed, tc.wantFailed)
		}
	}
}

// TestVacuousComparison: a capture sharing no benchmark with the baseline
// compares nothing, which main turns into a failure.
func TestVacuousComparison(t *testing.T) {
	units := map[string]bool{"jobs/s": true}
	base, err := parse(capture(t, "BenchmarkServeOverlap/overlap \t 2\t 100 ns/op\t 140.0 jobs/s"), units)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse(capture(t, "BenchmarkRenamed/overlap-2 \t 2\t 100 ns/op\t 150.0 jobs/s"), units)
	if err != nil {
		t.Fatal(err)
	}
	if compared, _ := compare(base, cur, 0.10); compared != 0 {
		t.Errorf("compared = %d, want 0 (vacuous)", compared)
	}
}
