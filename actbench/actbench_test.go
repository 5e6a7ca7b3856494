package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// The self-tests run at smoke size: go test ./... from this directory.

func TestSameSeedSameRequests(t *testing.T) {
	gen := func(seed uint64) []byte {
		var out bytes.Buffer
		p, err := planSingle(seed, 32, []float64{200, 400}, time.Second, 2, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, rp := range p.segs {
			for k, i := range rp.idx {
				out.Write(p.bodies[i])
				out.WriteString(rp.due[k].String())
			}
		}
		for _, i := range p.capacity {
			out.Write(p.bodies[i])
		}
		pool, err := newBatchPool(seed, 300)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			body, _ := pool.batch(seed, j, 64)
			out.Write(body)
			sw, err := newScriptSweep(seed, j, 64)
			if err != nil {
				t.Fatal(err)
			}
			out.Write(sw.body)
		}
		for _, salt := range []uint64{saltFleet, saltCluster} {
			g, err := newDeviceGen(seed, salt)
			if err != nil {
				t.Fatal(err)
			}
			chunk, err := g.chunk(0, 200)
			if err != nil {
				t.Fatal(err)
			}
			out.Write(chunk)
		}
		return out.Bytes()
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different request streams")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced the same request stream")
	}
}

// corrupt wraps a handler and changes the first digit in the body of
// every answer on the given path.
func corrupt(path string) func(int) func(http.Handler) http.Handler {
	return func(int) func(http.Handler) http.Handler {
		return func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != path {
					h.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				body := rec.Body.Bytes()
				for i := range body {
					if body[i] >= '1' && body[i] <= '8' {
						body[i]++
						break
					}
				}
				for k, v := range rec.Header() {
					w.Header()[k] = v
				}
				w.WriteHeader(rec.Code)
				w.Write(body)
			})
		}
	}
}

func TestOracleFlagsCorruptedAnswers(t *testing.T) {
	cases := []struct {
		workload, path string
		wantWrong      int // of the first four requests
	}{
		{"assess-single", "/v1/footprint", 4},
		{"assess-batch", "/v1/footprint", 2},
		{"assess-batch", "/v1/script", 2},
		{"fleet-rw", "/v1/fleet/summary", 2},
		{"cluster", "/v1/fleet/summary", 2},
	}
	for _, tc := range cases {
		t.Run(tc.workload+tc.path, func(t *testing.T) {
			kit, err := kits[tc.workload](3, smokeSizes)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := kit.start(corrupt(tc.path))
			if err != nil {
				t.Fatal(err)
			}
			defer stopAll(ms)
			c := newConn(ms[0].url)
			defer c.close()
			var log []replayReq
			var ans []answer
			for i := 0; i < 4; i++ {
				r, err := kit.next(i)
				if err != nil {
					t.Fatal(err)
				}
				log = append(log, r)
				ans = append(ans, send(c, i, r, nil))
			}
			o := &outcome{}
			if err := kit.check(o, log, ans); err != nil {
				t.Fatal(err)
			}
			if o.wrong != tc.wantWrong || o.failed != tc.wantWrong {
				t.Fatalf("oracle flagged %d wrong (%d failed) of %d answers, want %d", o.wrong, o.failed, o.attempted, tc.wantWrong)
			}
		})
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchNames reads the metric names BENCHMARK.json declares.
func benchNames(t *testing.T) (e2e, layer []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	return e2e, layer
}

func checkNames(t *testing.T, o *outcome, want []string) {
	t.Helper()
	for _, m := range append(append([]metric(nil), o.table...), o.out...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
	}
	if got := sortedNames(o.out); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("run reports metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if _, err := resultLine(o); err != nil {
		t.Error(err)
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	e2e, layer := benchNames(t)
	for _, n := range append(append([]string(nil), e2e...), layer...) {
		if !nameRE.MatchString(n) {
			t.Errorf("BENCHMARK.json metric name %q does not match %s", n, nameRE)
		}
	}
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		t.Run(w, func(t *testing.T) {
			o, err := workloads[w](5, 1500*time.Millisecond, smokeSizes)
			if err != nil {
				t.Fatal(err)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Fatalf("fail_ratio %d/%d, want 0 of a nonzero count", o.failed, o.attempted)
			}
			checkNames(t, o, e2e)
			o, err = runTraced(w, 5, time.Second, smokeSizes, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Fatalf("traced run: fail_ratio %d/%d, want 0 of a nonzero count", o.failed, o.attempted)
			}
			checkNames(t, o, layer)
		})
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, m, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricRule{unit: "us", better: "lower", bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = v * 1.3
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		old, new []float64
		want     string
	}{
		{steady, steady, "unchanged"},
		{steady, slower, "REGRESSED"},
		{slower, steady, "improved"},
		{steady, noisy, "unresolved"},
	} {
		if _, got := verdict(lower, tc.old, tc.new); got != tc.want {
			t.Errorf("verdict = %s, want %s", got, tc.want)
		}
	}
}
