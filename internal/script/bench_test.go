package script

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"act/internal/colbatch"
	"act/internal/scenario"
)

// The acceptance pair for `make bench-script` (BENCH_9.json): the same
// 1000-scenario sweep priced through a script program versus the direct
// colbatch path. The delta is the interpreter's overhead — the price of
// the sandbox — paid once per sweep (the scenario construction loop and
// the host-call surcharge), not per scenario: the pricing itself routes
// through the identical columnar engine.

const benchSweepN = 1000

// benchSweepProgram builds N scenarios in-language and prices them in one
// batched host call, folding a scalar out of the documents so the decode
// cost is realistic.
func benchSweepProgram(n int) string {
	return fmt.Sprintf(`let specs = []
for i in range(%d) {
  append(specs, {
    "name": format("sweep-%%d", i),
    "logic": [{"name": "soc", "area_mm2": 50 + i %% 50, "node": "7nm"}],
    "dram": [{"name": "ram", "technology": "lpddr4", "capacity_gb": 4}],
    "usage": {"power_w": 2, "app_hours": 876.6}
  })
}
let docs = footprint(specs)
let total = 0
for d in docs {
  total = total + d["total_g"]
}
total
`, n)
}

// benchSweepSpecs is the same sweep built natively.
func benchSweepSpecs(n int) []*scenario.Spec {
	specs := make([]*scenario.Spec, n)
	for i := range specs {
		specs[i] = &scenario.Spec{
			Name:  fmt.Sprintf("sweep-%d", i),
			Logic: []scenario.LogicSpec{{Name: "soc", AreaMM2: float64(50 + i%50), Node: "7nm"}},
			DRAM:  []scenario.DRAMSpec{{Name: "ram", Technology: "lpddr4", CapacityGB: 4}},
			Usage: scenario.UsageSpec{PowerW: 2, AppHours: 876.6},
		}
	}
	return specs
}

func BenchmarkScriptSweep1k(b *testing.B) {
	src := benchSweepProgram(benchSweepN)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Eval(ctx, src, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := res.Value.(float64); !ok {
			b.Fatalf("sweep result is %T, want number", res.Value)
		}
	}
	b.ReportMetric(float64(benchSweepN)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
}

func BenchmarkDirectSweep1k(b *testing.B) {
	specs := benchSweepSpecs(benchSweepN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := colbatch.Eval(specs)
		if _, err := r.FirstErr(); err != nil {
			b.Fatal(err)
		}
		total := 0
		for j := 0; j < r.Len(); j++ {
			total += len(r.Doc(j))
		}
		r.Close()
		if total == 0 {
			b.Fatal("empty documents")
		}
	}
	b.ReportMetric(float64(benchSweepN)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
}

// TestBenchSweepProgramAgrees pins that the two benchmark paths price the
// same sweep: the script's folded total equals the fold over the direct
// documents, so the benchmark comparison is apples to apples.
func TestBenchSweepProgramAgrees(t *testing.T) {
	const n = 50
	res, err := Eval(context.Background(), benchSweepProgram(n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := res.Value.(float64)
	if !ok {
		t.Fatalf("script total is %T", res.Value)
	}
	r := colbatch.Eval(benchSweepSpecs(n))
	defer r.Close()
	if _, err := r.FirstErr(); err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < r.Len(); i++ {
		doc := r.Doc(i)
		var out struct {
			TotalG float64 `json:"total_g"`
		}
		if err := json.Unmarshal(doc, &out); err != nil {
			t.Fatal(err)
		}
		want += out.TotalG
	}
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("script total %v != direct total %v", got, want)
	}
}

// TestSweepAllocsPerScenario pins the host boundary's allocation cost: a
// 256-point sweep, built in-language and priced in one footprint call,
// must stay within 200 allocations per scenario end to end. A JSON round
// trip per scenario on either side of the boundary costs roughly twice
// that.
func TestSweepAllocsPerScenario(t *testing.T) {
	const n, limit = 256, 200
	src := benchSweepProgram(n)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Eval(ctx, src, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / n; per > limit {
		t.Fatalf("%.0f allocs per scenario over a %d-point sweep, want <= %d", per, n, limit)
	}
}
