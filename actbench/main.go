// Command actbench is actd's end-to-end benchmark. It starts actd's
// serve.Server on loopback listeners inside its own process, drives it
// with traffic generated from a seed, checks every answer against an
// oracle, and prints each metric by name with its unit and sample count.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// Usage:
//
//	actbench --workload NAME --seed N --seconds S --trace 0|1
//	actbench --workload all --seed N --seconds S --trace 0|1
//	actbench compare [-bench BENCHMARK.json] OLD_DIR NEW_DIR
//
// --workload all runs the four workloads one after another from the same
// seed, each ending with its own JSON line.
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off; with --trace 1 it replays the workload's requests through each
// layer and reports per-layer self times. See README.md for the
// workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

// workloads maps each workload name to its end-to-end run.
var workloads = map[string]func(seed uint64, dur time.Duration, z sizes) (*outcome, error){
	"assess-single": runAssessSingle,
	"assess-batch":  runAssessBatch,
	"fleet-rw":      runFleetRW,
	"cluster":       runCluster,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "actbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload name: assess-single, assess-batch, fleet-rw, cluster, or all")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured run length in seconds")
		trace    = flag.Int("trace", 0, "1 replays the requests through each layer and reports per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"assess-single", "assess-batch", "fleet-rw", "cluster"}
	} else if workloads[*workload] == nil {
		fmt.Fprintf(os.Stderr, "actbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "actbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	for _, name := range names {
		var (
			o   *outcome
			err error
		)
		if *trace == 1 {
			o, err = runTraced(name, *seed, dur, fullSizes, *traceDir)
		} else {
			o, err = workloads[name](*seed, dur, fullSizes)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "actbench %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("workload %s  seed %d  seconds %g  trace %d\n", name, *seed, *seconds, *trace)
		if err := printOutcome(os.Stdout, o); err != nil {
			fmt.Fprintln(os.Stderr, "actbench:", err)
			os.Exit(1)
		}
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printOutcome prints the metric table, any notes, and the JSON line.
func printOutcome(w io.Writer, o *outcome) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples")
	for _, m := range o.table {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(o.self) > 0 {
		fmt.Fprintln(w)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "layer\tself_us_per_req\tshare_of_rtt\tspans")
		sum := 0.0
		for _, r := range o.self {
			fmt.Fprintf(tw, "%s\t%.3f\t%.1f%%\t%d\n", r.layer, r.us, 100*r.us/o.selfTotal, r.spans)
			sum += r.us
		}
		fmt.Fprintf(tw, "sum\t%.3f\t%.1f%%\t\n", sum, 100*sum/o.selfTotal)
		fmt.Fprintf(tw, "http.rtt\t%.3f\t100.0%%\t\n", o.selfTotal)
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, "note:", n)
	}
	line, err := resultLine(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func resultLine(o *outcome) ([]byte, error) {
	r := result{
		Correct:   o.wrong == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]resultValue{},
	}
	for _, m := range o.out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value (%d samples)", m.Name, m.N)
		}
		r.Metrics[m.Name] = resultValue{m.Value, m.Unit}
	}
	return json.Marshal(r)
}

// sortedNames lists a metric set's names in order.
func sortedNames(ms []metric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}
