package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// metricRule is how one metric is judged: which direction is better and
// the share of the old median by which it may worsen (0: not judged).
type metricRule struct {
	unit, better string
	bound        float64
}

// compareMain compares two sets of runs. Each set is a directory holding
// one <workload>.jsonl file per workload, each line the final JSON line
// of one run. Every workload × metric gets its own row with both sides'
// median and quartiles and a verdict under the benchmark's own bounds.
// It returns an error (exit status 1) when any metric regressed.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: actbench compare [-bench BENCHMARK.json] OLD_DIR NEW_DIR")
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	rules := map[string]metricRule{}
	var order []string
	for _, m := range spec.EndToEnd {
		rules[m.Name] = metricRule{m.Unit, m.Better, m.Bound}
		order = append(order, m.Name)
	}
	for _, m := range spec.PerLayer {
		rules[m.Name] = metricRule{m.Unit, m.Better, 0}
		order = append(order, m.Name)
	}
	oldRuns, err := loadRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	newRuns, err := loadRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	regressions, err := compareRuns(w, rules, order, oldRuns, newRuns)
	if err != nil {
		return err
	}
	if regressions > 0 {
		return fmt.Errorf("%d workload × metric pairs regressed beyond their bound", regressions)
	}
	return nil
}

// runSet maps workload → metric → one value per run.
type runSet map[string]map[string][]float64

func loadRuns(dir string) (runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no <workload>.jsonl files", dir)
	}
	set := runSet{}
	for _, f := range files {
		workload := strings.TrimSuffix(filepath.Base(f), ".jsonl")
		if err := readRuns(f, workload, set); err != nil {
			return nil, err
		}
	}
	return set, nil
}

func readRuns(path, workload string, set runSet) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return fmt.Errorf("%s:%d: %w", path, ln, err)
		}
		if set[workload] == nil {
			set[workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			set[workload][name] = append(set[workload][name], v.Value)
		}
	}
	return sc.Err()
}

// verdict judges one pair of run sets. worse is the signed relative
// change of the medians in the direction that is worse.
func verdict(rule metricRule, oldV, newV []float64) (change float64, v string) {
	_, om, _ := quartiles(append([]float64(nil), oldV...))
	_, nm, _ := quartiles(append([]float64(nil), newV...))
	change = (nm - om) / math.Abs(om)
	if rule.bound == 0 {
		return change, "-"
	}
	worse := change
	if rule.better == "higher" {
		worse = -change
	}
	spread := math.Max(relSpread(oldV), relSpread(newV))
	if spread > rule.bound {
		if allBetter(rule, oldV, newV) {
			return change, "improved"
		}
		return change, "unresolved"
	}
	switch {
	case worse > rule.bound:
		return change, "REGRESSED"
	case worse < -rule.bound:
		return change, "improved"
	}
	return change, "unchanged"
}

// relSpread is the distance between the quartiles as a share of the
// median.
func relSpread(v []float64) float64 {
	if len(v) < 2 {
		return math.Inf(1)
	}
	q1, m, q3 := quartiles(append([]float64(nil), v...))
	return (q3 - q1) / math.Abs(m)
}

// allBetter reports whether every new run reads better than every old.
func allBetter(rule metricRule, oldV, newV []float64) bool {
	for _, o := range oldV {
		for _, n := range newV {
			if (rule.better == "higher") != (n > o) || n == o {
				return false
			}
		}
	}
	return true
}

func compareRuns(w io.Writer, rules map[string]metricRule, order []string, oldRuns, newRuns runSet) (int, error) {
	workloads := make([]string, 0, len(oldRuns))
	for wl := range oldRuns {
		if newRuns[wl] != nil {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3] n\tnew median [q1, q3] n\tchange\tbound\tverdict")
	regressions := 0
	for _, wl := range workloads {
		for _, name := range order {
			oldV, newV := oldRuns[wl][name], newRuns[wl][name]
			if len(oldV) == 0 || len(newV) == 0 {
				continue
			}
			rule := rules[name]
			change, v := verdict(rule, oldV, newV)
			if v == "REGRESSED" {
				regressions++
			}
			bound := "-"
			if rule.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*rule.bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n", wl, name, rule.unit,
				describe(oldV), describe(newV), 100*change, bound, v)
		}
	}
	return regressions, tw.Flush()
}

func describe(v []float64) string {
	q1, m, q3 := quartiles(append([]float64(nil), v...))
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", m, q1, q3, len(v))
}
