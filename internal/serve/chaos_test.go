//go:build faultinject

// The chaos suite: actd under seeded fault injection. Build and run with
//
//	go test -race -tags faultinject ./internal/serve/
//
// (make verify-chaos). Hooks at the four injection sites — cache compute,
// pool worker, memdb lookup, script eval — throw latency, transient errors and panics
// from a deterministic PRNG while concurrent clients hammer the API. The
// assertions are the resilience contract: every request answers with a
// status from the taxonomy, nothing deadlocks, no goroutine outlives the
// storm, and once faults clear the service returns byte-identical results.

package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"act/internal/acterr"
	"act/internal/faultinject"
	"act/internal/scenario"
	"act/internal/script"
)

// chaosRNG is a splitmix64 stream behind a mutex: hooks fire from many
// goroutines but the fault sequence stays reproducible for one seed.
type chaosRNG struct {
	mu sync.Mutex
	s  uint64
}

func (r *chaosRNG) next() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pct draws a number in [0,100).
func (r *chaosRNG) pct() uint64 { return r.next() % 100 }

// registerStorm installs hooks at every injection site. Rates are per
// visit: a mix of clean passes, short latency, transient errors, and (at
// the cache site) the occasional panic to exercise the panic barrier.
func registerStorm(rng *chaosRNG) {
	faultinject.Register(faultinject.SiteCacheCompute, func(string) faultinject.Fault {
		switch p := rng.pct(); {
		case p < 10:
			return faultinject.Fault{Err: acterr.Transient(errors.New("injected cache fault"))}
		case p < 12:
			return faultinject.Fault{Panic: "injected cache panic"}
		case p < 30:
			return faultinject.Fault{Latency: 200 * time.Microsecond}
		}
		return faultinject.Fault{}
	})
	faultinject.Register(faultinject.SitePoolWorker, func(string) faultinject.Fault {
		switch p := rng.pct(); {
		case p < 5:
			return faultinject.Fault{Err: acterr.Transient(errors.New("injected pool fault"))}
		case p < 20:
			return faultinject.Fault{Latency: 100 * time.Microsecond}
		}
		return faultinject.Fault{}
	})
	faultinject.Register(faultinject.SiteMemdbLookup, func(string) faultinject.Fault {
		if rng.pct() < 5 {
			return faultinject.Fault{Err: acterr.Transient(errors.New("injected memdb fault"))}
		}
		return faultinject.Fault{}
	})
	faultinject.Register(faultinject.SiteScriptEval, func(string) faultinject.Fault {
		switch p := rng.pct(); {
		case p < 10:
			return faultinject.Fault{Err: acterr.Transient(errors.New("injected script fault"))}
		case p < 25:
			return faultinject.Fault{Latency: 150 * time.Microsecond}
		}
		return faultinject.Fault{}
	})
}

// TestChaosStorm is the headline chaos run. Faults are injected at every
// site while concurrent clients send single and batch requests; then the
// storm stops and the same requests must evaluate cleanly and
// byte-identically.
func TestChaosStorm(t *testing.T) {
	if !faultinject.Enabled {
		t.Skip("not built with -tags faultinject")
	}
	t.Cleanup(faultinject.Reset)

	s, ts := newTestServer(t, Config{
		Workers:        2,
		RetryAttempts:  3,
		BreakerOpenFor: 30 * time.Millisecond, // recover fast once faults clear
	})
	_ = s

	// Leak baseline: after the test server is up and has served once, so
	// httptest's accept loop and keep-alive conns are part of the floor.
	if resp, _ := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(49))); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup request failed: %d", resp.StatusCode)
	}
	baseline := runtime.NumGoroutine()

	rng := &chaosRNG{s: 42}
	registerStorm(rng)

	// The storm: concurrent clients, mixed shapes, every response drained.
	const clients, rounds = 8, 12
	codeCount := make([]map[int]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		codeCount[c] = map[int]int{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				url := ts.URL + "/v1/footprint"
				var body []byte
				switch i % 3 {
				case 0:
					body = mustJSON(t, testSpec(float64(50+c)))
				case 1:
					specs := make([]*scenario.Spec, 20)
					for j := range specs {
						specs[j] = testSpec(float64(100 + c*100 + j))
					}
					body = mustJSON(t, specs)
				default:
					url = ts.URL + "/v1/script"
					body = scriptBody(t, fmt.Sprintf("sum(range(%d))", 10+c))
				}
				resp, err := http.Post(url, "application/json",
					strings.NewReader(string(body)))
				if err != nil {
					t.Errorf("client %d: transport error: %v", c, err)
					return
				}
				readAll(t, resp)
				resp.Body.Close()
				codeCount[c][resp.StatusCode]++
			}
		}(c)
	}
	wg.Wait()

	// Status taxonomy: under injected faults the only legal answers are
	// 200 (retries absorbed the fault), 500 (fault survived the budget or a
	// panic), 503 (breaker opened on a 5xx streak), 429/504 under load.
	legal := map[int]bool{200: true, 429: true, 500: true, 503: true, 504: true}
	saw := map[int]int{}
	for c := range codeCount {
		for code, n := range codeCount[c] {
			saw[code] += n
			if !legal[code] {
				t.Errorf("illegal status %d during fault storm (client %d, %d times)", code, c, n)
			}
		}
	}
	t.Logf("storm statuses: %v; fired: cache=%d pool=%d memdb=%d script=%d",
		saw,
		faultinject.Fired(faultinject.SiteCacheCompute),
		faultinject.Fired(faultinject.SitePoolWorker),
		faultinject.Fired(faultinject.SiteMemdbLookup),
		faultinject.Fired(faultinject.SiteScriptEval))
	if faultinject.Fired(faultinject.SiteCacheCompute) == 0 ||
		faultinject.Fired(faultinject.SitePoolWorker) == 0 ||
		faultinject.Fired(faultinject.SiteScriptEval) == 0 {
		t.Error("fault storm never fired at a primary site — the chaos run tested nothing")
	}

	// Storm over: faults clear, the breaker (if tripped) relaxes, and the
	// service must answer byte-identically to a clean evaluation.
	faultinject.Reset()
	spec := testSpec(77)
	want := expectedResult(t, spec)
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, spec))
		if resp.StatusCode == http.StatusOK {
			if string(body) != string(want) {
				t.Fatalf("post-storm result not byte-identical:\n got %.200q\nwant %.200q", body, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service did not recover after faults cleared: status %d, body %.200s",
				resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The script surface recovers the same way: once faults clear the
	// envelope must match a direct library evaluation byte for byte.
	src := "sum(range(10))"
	res, err := script.Eval(context.Background(), src, script.Options{})
	if err != nil {
		t.Fatalf("clean library eval: %v", err)
	}
	var wantScript bytes.Buffer
	if err := res.Encode(&wantScript); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		resp, body := postJSON(t, ts.URL+"/v1/script", scriptBody(t, src))
		if resp.StatusCode == http.StatusOK {
			if string(body) != wantScript.String() {
				t.Fatalf("post-storm script result not byte-identical:\n got %.200q\nwant %.200q", body, wantScript.Bytes())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("script surface did not recover after faults cleared: status %d, body %.200s",
				resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// No goroutine outlives the storm (allow scheduler/keep-alive slack).
	leakDeadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(leakDeadline) {
		if runtime.NumGoroutine() <= baseline+4 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Errorf("goroutines leaked through the storm: baseline=%d now=%d", baseline, runtime.NumGoroutine())
}

// TestChaosRetryAbsorbsOccasionalFault pins the happy path of the retry
// budget: a site that fails exactly once per key still yields 200, and the
// retry counter records the absorbed faults.
func TestChaosRetryAbsorbsOccasionalFault(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, ts := newTestServer(t, Config{RetryAttempts: 3})

	var mu sync.Mutex
	failedOnce := false
	faultinject.Register(faultinject.SiteCacheCompute, func(string) faultinject.Fault {
		mu.Lock()
		defer mu.Unlock()
		if !failedOnce {
			failedOnce = true
			return faultinject.Fault{Err: acterr.Transient(errors.New("first attempt fails"))}
		}
		return faultinject.Fault{}
	})

	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(88)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (retry should absorb one fault); body %.200s",
			resp.StatusCode, body)
	}
	if got := s.mRetries.Value(); got == 0 {
		t.Error("actd_retries_total did not record the absorbed fault")
	}
	if want := expectedResult(t, testSpec(88)); string(body) != string(want) {
		t.Error("retried result not byte-identical to a clean evaluation")
	}
}

// TestChaosRetryContract pins RetryAttempts as the whole attempt budget
// of a request: a persistent transient fault at the cache-compute site is
// visited exactly RetryAttempts times and retried RetryAttempts-1 times,
// for a single object and a batch alike.
func TestChaosRetryContract(t *testing.T) {
	cases := []struct {
		name string
		body []byte
	}{
		{"single", mustJSON(t, testSpec(71))},
		{"batch", mustJSON(t, []*scenario.Spec{testSpec(72), testSpec(73)})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const attempts = 3
			s, ts := newTestServer(t, Config{RetryAttempts: attempts, BreakerThreshold: -1})
			var visits atomic.Int64
			faultinject.Register(faultinject.SiteCacheCompute, func(string) faultinject.Fault {
				visits.Add(1)
				return faultinject.Fault{Err: acterr.Transient(errors.New("persistent fault"))}
			})
			defer faultinject.Reset()

			before := s.mRetries.Value()
			resp, body := postJSON(t, ts.URL+"/v1/footprint", c.body)
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("status = %d, want 500; body %.200s", resp.StatusCode, body)
			}
			if got := visits.Load(); got != attempts {
				t.Errorf("cache-compute visits = %d, want RetryAttempts = %d", got, attempts)
			}
			if got := s.mRetries.Value() - before; got != attempts-1 {
				t.Errorf("actd_retries_total delta = %d, want %d", got, attempts-1)
			}
		})
	}
}

// TestChaosExhaustedRetriesAnswer500 pins the other side: a site that
// always fails burns the whole budget and answers 500 — never a hang, and
// never a 400 (transient faults are not the client's fault).
func TestChaosExhaustedRetriesAnswer500(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{RetryAttempts: 2, BreakerThreshold: -1})

	faultinject.Register(faultinject.SiteCacheCompute, func(string) faultinject.Fault {
		return faultinject.Fault{Err: acterr.Transient(errors.New("persistent fault"))}
	})

	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(99)))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %.200s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "request_id") {
		t.Error("500 body missing request_id")
	}
}

// TestChaosPanicBecomesContained500 pins the panic barrier end to end: an
// injected panic in the cache compute path answers 500 on that request and
// the very next request (faults cleared) evaluates normally.
func TestChaosPanicBecomesContained500(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{RetryAttempts: 1, BreakerThreshold: -1})

	faultinject.Register(faultinject.SiteCacheCompute, func(string) faultinject.Fault {
		return faultinject.Fault{Panic: fmt.Sprintf("injected panic")}
	})
	resp, _ := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(64)))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}

	faultinject.Reset()
	resp, body := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(64)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request: status %d, want 200; body %.200s", resp.StatusCode, body)
	}
}

// TestChaosDeadlineCutsInjectedLatency pins cancellable fault latency: a
// hook that injects latency far beyond the request timeout must not pin
// workers — the request answers 504 promptly and workers unwind.
func TestChaosDeadlineCutsInjectedLatency(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, ts := newTestServer(t, Config{
		RequestTimeout:   25 * time.Millisecond,
		RetryAttempts:    1,
		Workers:          2,
		BreakerThreshold: -1,
	})
	if resp, _ := postJSON(t, ts.URL+"/v1/footprint", mustJSON(t, testSpec(63))); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup request failed: %d", resp.StatusCode)
	}
	baseline := runtime.NumGoroutine()

	faultinject.Register(faultinject.SiteCacheCompute, func(string) faultinject.Fault {
		return faultinject.Fault{Latency: 10 * time.Second}
	})

	start := time.Now()
	resp, _ := postJSON(t, ts.URL+"/v1/footprint", distinctBatch(t, 8, 0))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("504 took %s — injected latency was not cut by the deadline", el)
	}

	faultinject.Reset()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+4 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Errorf("workers pinned by injected latency: baseline=%d now=%d", baseline, runtime.NumGoroutine())
}
