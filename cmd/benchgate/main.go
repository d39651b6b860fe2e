// Command benchgate compares a fresh `go test -json` benchmark capture
// against a committed baseline and fails (exit 1) when a throughput metric
// regressed beyond the tolerance — the serving-path regression gate
// `make bench-smoke` runs in CI.
//
// Both files are test2json streams; benchmark results arrive as Output
// lines like
//
//	BenchmarkServeOverlap/overlap ... 141.5 jobs/s ... 4728 allocs/op
//
// benchgate extracts, per benchmark name, every `<value> <unit>` metric
// pair whose unit is listed in -metrics (higher-is-better units), and
// requires current ≥ (1 - tolerance) × baseline for each. Benchmarks
// present in only one file are reported but never fail the gate, so the
// baseline does not have to be regenerated when a benchmark is added.
// Names are compared without the `-N` GOMAXPROCS suffix `go test` appends
// on multi-core hosts, so a baseline captured at one core count gates runs
// at any other.
// Every metric that is skipped (present in the baseline but missing from
// the current capture, or non-positive in the baseline) is logged, and if
// the run ends with zero metrics actually compared the gate fails: a
// vacuous comparison must not read as a pass.
//
// Usage:
//
//	benchgate -baseline bench/BENCH_serve_baseline.json -current BENCH_serve.json
//
// A missing baseline file skips the gate with a notice (exit 0): fresh
// clones and baseline-regeneration commits must not fail CI.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type metrics map[string]map[string]float64 // bench name → unit → value

// parse extracts benchmark metrics from a test2json stream.
func parse(path string, units map[string]bool) (metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(metrics)
	// test2json splits long benchmark result lines across several Output
	// events, so reassemble the whole output stream first and split on real
	// newlines.
	var stream strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct{ Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		stream.WriteString(ev.Output)
	}
	for _, raw := range strings.Split(stream.String(), "\n") {
		line := strings.TrimSpace(raw)
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := benchName(fields[0])
		for i := 1; i+1 < len(fields); i++ {
			unit := fields[i+1]
			if !units[unit] {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if out[name] == nil {
				out[name] = make(map[string]float64)
			}
			out[name][unit] = v
		}
	}
	return out, sc.Err()
}

// benchName strips the trailing `-<digits>` GOMAXPROCS suffix from a
// benchmark name. Sub-benchmark parameters are spelled `key=value`, so no
// other name ends in a dash and digits.
func benchName(s string) string {
	i := strings.LastIndexByte(s, '-')
	if i < 0 || i == len(s)-1 {
		return s
	}
	if _, err := strconv.Atoi(s[i+1:]); err != nil {
		return s
	}
	return s[:i]
}

// compare gates every baseline metric present in cur against the floor
// (1 - tolerance) × baseline, printing one line per benchmark metric. It
// returns how many metrics it compared and whether any regressed.
func compare(base, cur metrics, tolerance float64) (compared int, failed bool) {
	for name, bm := range base {
		cm, ok := cur[name]
		if !ok {
			fmt.Printf("benchgate: %s: in baseline only (ignored)\n", name)
			continue
		}
		for unit, bv := range bm {
			cv, ok := cm[unit]
			if !ok {
				// A metric the baseline has but the current capture lost is
				// exactly how a broken benchmark slips past the gate —
				// always say so.
				fmt.Printf("benchgate: %s: %s missing from current capture — skipped\n", name, unit)
				continue
			}
			if bv <= 0 {
				fmt.Printf("benchgate: %s: non-positive baseline %.4g %s — skipped\n", name, bv, unit)
				continue
			}
			compared++
			floor := bv * (1 - tolerance)
			verdict := "ok"
			if cv < floor {
				verdict = "REGRESSED"
				failed = true
			}
			fmt.Printf("benchgate: %s: %.4g %s vs baseline %.4g (floor %.4g) — %s\n",
				name, cv, unit, bv, floor, verdict)
		}
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Printf("benchgate: %s: new benchmark, no baseline (ignored)\n", name)
		}
	}
	return compared, failed
}

func main() {
	baseline := flag.String("baseline", "", "committed test2json baseline capture")
	current := flag.String("current", "", "fresh test2json capture to gate")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional regression (0.10 = 10%)")
	unitList := flag.String("metrics", "jobs/s", "comma-separated higher-is-better units to gate on")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and -current are required")
		os.Exit(2)
	}
	if tol := os.Getenv("BENCHGATE_TOLERANCE"); tol != "" {
		v, err := strconv.ParseFloat(tol, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: bad BENCHGATE_TOLERANCE %q: %v\n", tol, err)
			os.Exit(2)
		}
		*tolerance = v
	}
	units := make(map[string]bool)
	for _, u := range strings.Split(*unitList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			units[u] = true
		}
	}

	base, err := parse(*baseline, units)
	if os.IsNotExist(err) {
		fmt.Printf("benchgate: no baseline at %s — gate skipped\n", *baseline)
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: reading baseline: %v\n", err)
		os.Exit(2)
	}
	cur, err := parse(*current, units)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: reading current: %v\n", err)
		os.Exit(2)
	}

	compared, failed := compare(base, cur, *tolerance)
	if compared == 0 {
		// A gate that compared nothing passed nothing: renamed benchmarks,
		// a bad -metrics list, or an empty capture must fail loudly, not
		// report success.
		fmt.Fprintf(os.Stderr, "benchgate: no metric compared between %s and %s — gate is vacuous\n",
			*baseline, *current)
		os.Exit(1)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: throughput regressed more than %.0f%% vs %s\n",
			*tolerance*100, *baseline)
		os.Exit(1)
	}
}
