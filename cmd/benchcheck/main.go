// Command benchcheck guards the benchmark trajectory: it runs the
// tracked benchmarks with -benchmem, compares allocs/op and wall-clock
// (sec/op) against the latest entry in BENCH_baseline.json, and exits
// non-zero on a regression beyond either threshold. CI runs it on
// every push so an allocation or wall-clock regression on the hot path
// fails the build instead of quietly eroding the perf-PR trail.
//
// Thresholds are separate because the failure modes are: allocs/op is
// machine-independent and gated tightly (-threshold, default 20%);
// ns/op measures the runner and is gated loosely (-wall-threshold,
// default 100%, i.e. fail only past 2x) so scheduler noise passes but
// an accidental serialization or busy-wait does not.
// metadata_bytes_per_chunk (reported by BenchmarkScaleSweep512) is
// machine-independent like allocs/op and shares its tight threshold:
// a struct field added to the device's per-chunk metadata without
// re-baselining fails the build.
//
// Usage:
//
//	benchcheck [-baseline BENCH_baseline.json] [-threshold 0.20] [-wall-threshold 1.0] [-json]
//
// -json prints the measured numbers as a baseline-entry fragment, ready
// to append to BENCH_baseline.json when a perf PR moves the needle.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// tracked are the benchmarks recorded in BENCH_baseline.json; a
// sub-benchmark is tracked by its full name (Parent/sub).
var tracked = []string{
	"BenchmarkFigure5DbBench",
	"BenchmarkFigure5DbBenchNotify",
	"BenchmarkFigure3Recovery",
	"BenchmarkFigure7DataCopies",
	"BenchmarkHostPipelinedExecutor",
	"BenchmarkCrashRecovery",
	"BenchmarkFabricLoopback",
	"BenchmarkFabricReconnect",
	"BenchmarkOffloadGet",
	"BenchmarkScaleSweep512",
	"BenchmarkPoolAcquire",
	"BenchmarkWALSync",
	"BenchmarkChipProgram/random",
	"BenchmarkChipProgram/zero_scan",
	"BenchmarkChipProgram/zero",
}

type baseline struct {
	Description string  `json:"description"`
	Entries     []entry `json:"entries"`
}

type entry struct {
	Date       string                     `json:"date"`
	Label      string                     `json:"label"`
	Benchmarks map[string]json.RawMessage `json:"benchmarks"`
}

// benchNums holds one benchmark's measurements keyed like the baseline
// file: ns_per_op / bytes_per_op / allocs_per_op plus any custom
// metrics the benchmark reports (fillH1_kops, ci30Recovery_s, ...), so
// a -json fragment is appendable to BENCH_baseline.json as-is.
type benchNums map[string]float64

// metricKeys maps go-test units to baseline field names; custom metric
// units (which are already snake_case names) pass through unchanged.
var metricKeys = map[string]string{
	"ns/op":     "ns_per_op",
	"B/op":      "bytes_per_op",
	"allocs/op": "allocs_per_op",
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline trajectory file")
	threshold := flag.Float64("threshold", 0.20, "allowed fractional allocs/op regression")
	wallThreshold := flag.Float64("wall-threshold", 1.0, "allowed fractional wall-clock (sec/op) regression")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime value")
	asJSON := flag.Bool("json", false, "print measured numbers as a baseline-entry fragment")
	flag.Parse()

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	if len(base.Entries) == 0 {
		fatal(fmt.Errorf("%s has no entries", *baselinePath))
	}
	last := base.Entries[len(base.Entries)-1]

	measured, err := runBenchmarks(*benchtime)
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		out, _ := json.MarshalIndent(measured, "", "  ")
		fmt.Println(string(out))
	}

	failed := false
	for _, name := range tracked {
		got, ok := measured[name]
		if !ok {
			fmt.Printf("FAIL %-28s did not run\n", name)
			failed = true
			continue
		}
		var want benchNums
		raw, ok := last.Benchmarks[name]
		if !ok {
			fmt.Printf("SKIP %-28s not in baseline entry %q\n", name, last.Label)
			continue
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			fatal(fmt.Errorf("baseline %s: %w", name, err))
		}
		limit := want["allocs_per_op"] * (1 + *threshold)
		status := "ok  "
		if got["allocs_per_op"] > limit {
			status = "FAIL"
			failed = true
		}
		metaNote := ""
		if base, ok := want["metadata_bytes_per_chunk"]; ok && base > 0 {
			metaLimit := base * (1 + *threshold)
			metaNote = fmt.Sprintf("  meta B/chunk %.1f (baseline %.1f, limit %.1f)", got["metadata_bytes_per_chunk"], base, metaLimit)
			if got["metadata_bytes_per_chunk"] > metaLimit {
				status = "FAIL"
				failed = true
				metaNote += "  METADATA REGRESSION"
			}
		}
		wallNote := ""
		if base, ok := want["ns_per_op"]; ok && base > 0 {
			wallLimit := base * (1 + *wallThreshold)
			wallNote = fmt.Sprintf("  (baseline %.2fs, limit %.2fs)", base/1e9, wallLimit/1e9)
			if got["ns_per_op"] > wallLimit {
				status = "FAIL"
				failed = true
				wallNote += "  WALL REGRESSION"
			}
		}
		fmt.Printf("%s %-30s allocs/op %10.0f (baseline %10.0f, limit %10.0f)  ns/op %.2fs%s%s\n",
			status, name, got["allocs_per_op"], want["allocs_per_op"], limit, got["ns_per_op"]/1e9, wallNote, metaNote)
	}
	if failed {
		fmt.Printf("\nallocs/op regressed more than %.0f%% or wall-clock more than %.0f%% against baseline entry %q\n",
			*threshold*100, *wallThreshold*100, last.Label)
		os.Exit(1)
	}
}

func loadBaseline(path string) (baseline, error) {
	var b baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(data, &b)
}

// runBenchmarks executes the tracked benchmarks once and parses the
// standard testing output: "BenchmarkName-N  iters  X ns/op ... Y B/op
// Z allocs/op" with any custom metrics in between.
func runBenchmarks(benchtime string) (map[string]benchNums, error) {
	// -bench matches each level of a name separately, so the pattern
	// names the top-level benchmarks; their sub-benchmarks all run.
	var top []string
	for _, name := range tracked {
		if parent, _, _ := strings.Cut(name, "/"); !slices.Contains(top, parent) {
			top = append(top, parent)
		}
	}
	pattern := "^(" + strings.Join(top, "|") + ")$"
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", pattern, "-benchmem", "-benchtime", benchtime, ".")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w\n%s", err, out.String())
	}
	res := make(map[string]benchNums)
	for _, line := range strings.Split(out.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.SplitN(fields[0], "-", 2)[0]
		n := make(benchNums)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			key := fields[i+1]
			if k, ok := metricKeys[key]; ok {
				key = k
			}
			n[key] = v
		}
		if len(n) > 0 {
			res[name] = n
		}
	}
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
