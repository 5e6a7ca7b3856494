package script

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"act/internal/acterr"
	"act/internal/dse"
	"act/internal/metrics"
)

// scriptPareto runs the pareto builtin over one point map per row (field
// fJ holds column J, "id" the row index) and returns the kept row indices.
func scriptPareto(t *testing.T, vals [][]float64, k int) []int {
	t.Helper()
	pts := &List{}
	for i, row := range vals {
		m := NewMap()
		m.Set("id", float64(i))
		for j, v := range row {
			m.Set("f"+strconv.Itoa(j), v)
		}
		pts.Elems = append(pts.Elems, m)
	}
	fields := &List{}
	for j := 0; j < k; j++ {
		fields.Elems = append(fields.Elems, "f"+strconv.Itoa(j))
	}
	ctx := context.Background()
	in := &interp{ctx: ctx, outerCtx: ctx, budget: Budget{MaxSteps: -1, MaxAllocBytes: -1}.withDefaults()}
	out, err := hostPareto(in, Pos{}, []Value{pts, fields})
	if err != nil {
		t.Fatal(err)
	}
	var kept []int
	for _, p := range out.(*List).Elems {
		id, _ := p.(*Map).Get("id")
		kept = append(kept, int(id.(float64)))
	}
	return kept
}

// sweepPareto is /v1/sweep's frontier over the same rows: one candidate
// per row, one objective per column. dse needs two objectives, so a
// single column is passed twice, which leaves dominance unchanged.
func sweepPareto(t *testing.T, vals [][]float64, k int) []int {
	t.Helper()
	cands := make([]metrics.Candidate, len(vals))
	for i := range cands {
		cands[i].Name = strconv.Itoa(i)
	}
	var objs []dse.Objective
	for j := 0; j < k; j++ {
		j := j
		objs = append(objs, dse.Objective{Name: "f" + strconv.Itoa(j), Eval: func(c metrics.Candidate) float64 {
			i, _ := strconv.Atoi(c.Name)
			return vals[i][j]
		}})
	}
	if k == 1 {
		objs = append(objs, objs[0])
	}
	front, err := dse.ParetoFrontier(cands, objs)
	if err != nil {
		t.Fatal(err)
	}
	kept := make([]int, len(front))
	for i, c := range front {
		kept[i], _ = strconv.Atoi(c.Name)
	}
	return kept
}

// TestParetoMatchesSweepFrontier pins script pareto to the frontier
// /v1/sweep serves, on shared point sets: NaN, ±Inf, exact duplicates
// and ties, one to four fields, and a 3-field set large enough (600
// rows, past dse's 512-row cutoff) to take the parallel scan.
func TestParetoMatchesSweepFrontier(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	sets := map[string][][]float64{
		"NaN beside finite":    {{nan, nan}, {1, 1}},
		"NaN in one field":     {{nan, 0}, {1, 1}, {0, nan}},
		"all NaN":              {{nan, nan}, {nan, nan}},
		"infinities":           {{inf, 0}, {0, inf}, {math.Inf(-1), inf}, {inf, inf}, {1, 1}},
		"duplicates and ties":  {{1, 2}, {1, 2}, {2, 1}, {2, 1}, {1, 3}, {3, 1}, {2, 2}},
		"one field":            {{3}, {1}, {nan}, {1}, {inf}, {2}},
		"one field all NaN":    {{nan}, {nan}},
		"three fields, ties":   {{1, 1, 2}, {1, 2, 1}, {2, 1, 1}, {1, 1, 2}, {nan, 0, 0}, {2, 2, 2}},
		"four fields, -Inf":    {{math.Inf(-1), 5, 5, 5}, {0, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, nan}},
		"single point":         {{nan, 1, 2}},
		"every point survives": {{1, 4}, {2, 3}, {3, 2}, {4, 1}},
	}
	// Seeded sets over a small value alphabet, so ties, duplicates and
	// non-finite values are frequent.
	alphabet := []float64{nan, inf, math.Inf(-1), 0, 1, 1, 2, 3}
	g := uint64(1)
	next := func() float64 {
		g = g*6364136223846793005 + 1442695040888963407
		return alphabet[(g>>33)%uint64(len(alphabet))]
	}
	for _, size := range []struct{ n, k int }{{40, 1}, {40, 2}, {60, 3}, {60, 4}, {600, 3}} {
		rows := make([][]float64, size.n)
		for i := range rows {
			rows[i] = make([]float64, size.k)
			for j := range rows[i] {
				// The large set draws mostly finite spreads so its frontier
				// is not just the minima.
				if size.n > 100 {
					g = g*6364136223846793005 + 1442695040888963407
					rows[i][j] = float64((g >> 33) % 1000)
					if (g>>20)%50 == 0 {
						rows[i][j] = nan
					}
					continue
				}
				rows[i][j] = next()
			}
		}
		sets[fmt.Sprintf("seeded n=%d k=%d", size.n, size.k)] = rows
	}

	for name, vals := range sets {
		k := len(vals[0])
		got := scriptPareto(t, vals, k)
		want := sweepPareto(t, vals, k)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: script pareto kept %v, /v1/sweep's frontier %v", name, got, want)
		}
	}
}

// TestParetoNaNPointLoses: a point whose fields are NaN drops out of the
// frontier beside a finite point, as it does from /v1/sweep's.
func TestParetoNaNPointLoses(t *testing.T) {
	src := `let big = pow(10, 308) * 10
let nan = big - big
pareto([{"x": nan, "y": nan}, {"x": 1, "y": 1}], ["x", "y"])`
	res, err := Eval(context.Background(), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := res.Encode(&out); err != nil {
		t.Fatal(err)
	}
	if want := "\"output\": [\n    {\n      \"x\": 1,\n      \"y\": 1\n    }\n  ],"; !strings.Contains(out.String(), want) {
		t.Errorf("frontier envelope:\n%s\nwant only the finite point", out.String())
	}
}

// lapsingCtx is a deadline that lapses once a scan is under way: its
// first Err poll (ParetoMask's entry check) passes, every later one
// reports the deadline, and Done is closed, so the worker pool the scan
// starts is cancelled as it begins.
type lapsingCtx struct {
	context.Context
	done  chan struct{}
	polls atomic.Int32
}

func (c *lapsingCtx) Done() <-chan struct{} { return c.done }

func (c *lapsingCtx) Err() error {
	if c.polls.Add(1) == 1 {
		return nil
	}
	return context.DeadlineExceeded
}

// TestBudgetDeadlineMidPareto: a deadline cuts 3-field, 600-point pareto
// scans off once they have begun. 600 points is past dse's 512-row
// cutoff, so each scan fans its rows out across parsweep workers; the
// cut-off program must answer a deadline budget error and leave no
// worker behind.
func TestBudgetDeadlineMidPareto(t *testing.T) {
	checkNoGoroutineLeak(t)
	// Every point is on the frontier (a rises as b falls), so a scan
	// compares all pairs and takes nearly all of a pareto call's time.
	pts, fields := &List{}, &List{Elems: []Value{"a", "b", "c"}}
	for i := 0; i < 600; i++ {
		m := NewMap()
		m.Set("a", float64(i))
		m.Set("b", float64(600-i))
		m.Set("c", float64(i*13%600))
		pts.Elems = append(pts.Elems, m)
	}

	// Deterministic: the deadline lapses after the scan's entry check.
	lapse := &lapsingCtx{Context: context.Background(), done: make(chan struct{})}
	close(lapse.done)
	in := &interp{ctx: lapse, outerCtx: context.Background(), untilCtx: 1 << 40, // no step-time poll
		budget: Budget{MaxSteps: -1, MaxAllocBytes: -1, Timeout: time.Second}.withDefaults()}
	_, err := hostPareto(in, Pos{}, []Value{pts, fields})
	wantBudget(t, err, "deadline")
	if lapse.polls.Load() < 2 {
		t.Fatalf("the scan polled its context %d time(s); the deadline never reached the pool", lapse.polls.Load())
	}

	// End to end: a wall-clock budget lands among back-to-back scans.
	src := `let pts = []
for i in range(600) { pts = append(pts, {"a": i, "b": 600 - i, "c": (i * 13) % 600}) }
for true { pareto(pts, ["a", "b", "c"]) }`
	start := time.Now()
	_, err = Eval(context.Background(), src, Options{
		Budget: Budget{Timeout: 50 * time.Millisecond, MaxSteps: -1, MaxAllocBytes: -1},
	})
	wantBudget(t, err, "deadline")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to cut the scans off", elapsed)
	}

	// A caller deadline shorter than the script's still outranks it.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = Eval(ctx, src, Options{Budget: Budget{Timeout: time.Hour, MaxSteps: -1, MaxAllocBytes: -1}})
	if !errors.Is(err, context.DeadlineExceeded) || acterr.IsBudget(err) {
		t.Fatalf("err = %v, want the caller's context.DeadlineExceeded", err)
	}
}
