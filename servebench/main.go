// Command servebench is the serving benchmark of the dsh repository. It
// self-hosts the HTTP serving edge (internal/serve) over a hash-routed
// sharded index (internal/index) on a loopback listener, drives it from
// the same process with fresh generated traffic, checks the answers, and
// prints one JSON result line. See README.md.
//
// Usage:
//
//	servebench --workload read|bulk|mixed --seed N --seconds 16 --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	name := flag.String("workload", "read", "workload: read, bulk or mixed")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 16, "length of the timed phases in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics and write a span file")
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: want --workload read|bulk|mixed, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	rep, err := run(defaultConfig(spec, *seed, *seconds, *trace == 1))
	if err == nil {
		err = rep.fill(*trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "servebench: check failed:", p)
	}
	names := make([]string, 0, len(rep.values))
	for n := range rep.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-36s %.6g\n", n, rep.values[n])
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// fill selects the printed metrics: the end-to-end ones, or with traced
// the per-layer ones. An end-to-end metric that reads 0 could not be
// measured (a percentile with too few samples beyond it), which fails
// the run rather than report a number the samples do not support.
func (r *report) fill(traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if !traced && v == 0 {
			return fmt.Errorf("metric %s could not be measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return nil
}
