// Command perfbench is the simulator's wall-clock benchmark. It drives
// one of four closed-loop workloads through the public stack (host
// interface, FTLs, media, fabrics, LSM) from a single process, checks
// every output against a shadow copy, and prints the end-to-end
// metrics (-trace 0) or the per-layer metrics of a separate traced run
// (-trace 1). The last line of standard output is one JSON object.
//
//	go run . -workload block-oltp -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "timed phase length in wall seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "where traced runs write their spans")
	flag.Parse()
	if !validWorkload(*name) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, l := range res.labels {
		fmt.Println(l)
	}
	out, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
