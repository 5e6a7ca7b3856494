package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"act/internal/colbatch"
	"act/internal/fleet"
	"act/internal/report"
	"act/internal/scenario"
)

// sizes fixes how much work each workload does besides its run length.
// fullSizes is the benchmark; smokeSizes keeps the self-tests short.
type sizes struct {
	setupReps    int       // set-ups per run; setup_s is their median
	hotN         int       // assess-single hot set, below the 4096-entry cache
	ladder       []float64 // assess-single offered rates, req/s
	cycles       int       // assess-single walks of the ladder per run
	poolN        int       // assess-batch scenario pool, far above the cache
	batchN       int       // scenarios per batch and points per script sweep
	warmBatches  int       // assess-batch warm-up batches in set-up
	preload      int       // devices ingested during fleet-rw set-up
	clusterLoad  int       // devices ingested during cluster set-up
	chunk        int       // devices per fleet-rw ingest request
	clusterChunk int       // devices per cluster ingest request
	replayMax    int       // traced run: cap on the requests replayed
}

// The ladder is frozen: it was set once from the capacity the seed
// commit showed on a 2-core machine (16k to 20k cached req/s closed loop
// on two connections) and must not move with later commits, or rates
// stop being comparable.
var fullSizes = sizes{
	setupReps:    5,
	hotN:         2048,
	ladder:       []float64{1500, 3000, 4500, 6000, 7500},
	cycles:       2,
	poolN:        20000,
	batchN:       512,
	warmBatches:  8,
	preload:      10000,
	clusterLoad:  20000,
	chunk:        500,
	clusterChunk: 25,
	replayMax:    20000,
}

var smokeSizes = sizes{
	setupReps:    1,
	hotN:         64,
	ladder:       []float64{200, 400, 600},
	cycles:       1,
	poolN:        500,
	batchN:       32,
	warmBatches:  1,
	preload:      300,
	clusterLoad:  300,
	chunk:        50,
	clusterChunk: 20,
	replayMax:    40,
}

// footprint.slo_rps is the highest ladder rate whose sloPct-th latency
// percentile stays within sloLimitUS, with no failures and no growing
// backlog. The percentile is p90 and the limit 10 ms, not the p99 and
// 1 ms the tail rows would suggest: on a shared 2-core VM the p99 of
// every rung swings from 0.5 to 23 ms between runs with host CPU steal,
// and the p90 of the 4500 and 7500 req/s rungs reached 3.9 and 5.4 ms
// in ten runs of the same code, which would make the rate jump between
// rungs from run to run. The limit guards capacity, not the tail.
const (
	sloPct     = 90
	sloLimitUS = 10000
)

// capacityShare percent of an assess-single run is the capacity phase:
// the same request mix closed loop on both connections. Its median
// latency and throughput are the gated figures, because with the
// processors saturated they do not carry the wake-up latency of an idle
// VM: over eight runs of the same code the open-loop middle-rung p50
// ranged from 167 to 412 us while the closed-loop p50 stayed within 84 to
// 95 us. The phase takes most of the run, in parts spread over it,
// because its throughput follows the host's speed, which swings over
// seconds to tens of seconds (17k to 27k req/s from one second to the
// next in an 18 s phase whose mean was 22k in each of three runs; the
// process CPU time per request moved with it, so the swings are the
// host's and not idle time). capacityCeiling bounds the requests planned
// for the phase.
const (
	capacityShare   = 75
	capacityCeiling = 50000 // req/s
)

// metric is one printed figure with the number of samples behind it.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// outcome is what a run reports: request accounting, the printed table,
// and the metrics of the final JSON line.
type outcome struct {
	attempted, failed, wrong int
	table                    []metric
	out                      []metric
	notes                    []string
	// The traced run's self-time table: per-request self time by layer,
	// against the mean round trip they add up to.
	self      []selfRow
	selfTotal float64
}

type selfRow struct {
	layer string
	us    float64
	spans int
}

func (o *outcome) row(name, unit string, v float64, n int) {
	o.table = append(o.table, metric{name, unit, v, n})
}

func (o *outcome) emit(name, unit string, v float64, n int) {
	o.out = append(o.out, metric{name, unit, v, n})
}

// count books one answered request: ok is false for an error, a refusal
// or a wrong answer.
func (o *outcome) count(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// lats holds latencies in microseconds.
type lats []float64

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// latRows prints p50 and the tail percentiles of one latency series. A
// percentile is printed only with at least ten samples beyond it.
func (o *outcome) latRows(prefix, unit string, l lats, tails ...float64) {
	scale := 1.0
	if unit == "ms" {
		scale = 1e-3
	}
	o.row(prefix+".p50_"+unit, unit, pct(l, 50)*scale, len(l))
	for _, p := range tails {
		name := fmt.Sprintf("%s.p%g_%s", prefix, p, unit)
		if beyond(len(l), p) < 10 {
			o.notes = append(o.notes, fmt.Sprintf("%s not reported: %d samples leave fewer than 10 beyond it", name, len(l)))
			continue
		}
		o.row(name, unit, pct(l, p)*scale, len(l))
	}
}

var hashSeed = maphash.MakeSeed()

func hashOf(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

// heapLiveMB forces a collection and reads the live heap. The second
// collection empties the sync.Pool victim caches the first one filled,
// so pooled buffers do not make the figure depend on when the run ended.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// setupLoop runs fn reps times, each on a fresh server set, and returns
// the last set plus the median set-up time. Earlier sets are stopped
// before the next one starts.
func setupLoop[T any](reps int, fn func() (T, error), stop func(T) error) (T, float64, error) {
	var cur T
	var have bool
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if have {
			if err := stop(cur); err != nil {
				return cur, 0, err
			}
			have = false
		}
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return cur, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		cur, have = v, true
	}
	return cur, pct(times, 50), nil
}

// directDoc is the oracle for one footprint document: Spec.Result through
// the canonical encoder, the bytes actd's cache holds.
func directDoc(s *scenario.Spec) ([]byte, error) {
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.Encode(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// batchBody is the oracle for a batch response: the element documents
// joined the way actd joins them.
func batchBody(docs [][]byte) []byte {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, d := range docs {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(bytes.TrimRight(d, "\n"))
	}
	buf.WriteString("]\n")
	return buf.Bytes()
}

// sweepTotal is the oracle for a script sweep: the same points priced by
// a direct colbatch.Eval, summed in order.
func sweepTotal(specs []*scenario.Spec) (float64, error) {
	r := colbatch.Eval(specs)
	defer r.Close()
	if i, err := r.FirstErr(); err != nil {
		return 0, fmt.Errorf("point %d: %w", i, err)
	}
	total := 0.0
	for i := 0; i < r.Len(); i++ {
		var d struct {
			TotalG float64 `json:"total_g"`
		}
		if err := json.Unmarshal(r.Doc(i), &d); err != nil {
			return 0, err
		}
		total = total + d.TotalG
	}
	return total, nil
}

// scriptOutput extracts the program value and step count of a /v1/script
// answer.
func scriptOutput(body []byte) (float64, int64, error) {
	var out struct {
		Output *float64 `json:"output"`
		Steps  int64    `json:"steps"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, 0, err
	}
	if out.Output == nil {
		return 0, 0, fmt.Errorf("script answer has no numeric output")
	}
	return *out.Output, out.Steps, nil
}

// summaryDevices reads the device count at the head of a summary document
// without decoding the rest.
func summaryDevices(body []byte) (int, bool) {
	const key = `"devices": `
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	n, j := 0, i+len(key)
	for ; j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
		n = n*10 + int(body[j]-'0')
	}
	return n, j > i+len(key)
}

// ---- assess-single ----

type sent struct {
	lat, late time.Duration
	status    int
	hash      uint64
	err       error
}

// openLoop sends a rung's requests on their Poisson schedule over the
// connections. Each connection takes the next request in order; one that
// is due while both are busy waits, and its latency, timed from its due
// time, includes the wait. A request whose connection sat idle until it
// was due is timed from when it was sent: how late the generator itself
// woke up is its lateness, reported apart, not the server's latency.
func openLoop(conns []*conn, rp segPlan, bodies [][]byte) ([]sent, time.Duration, error) {
	res := make([]sent, len(rp.idx))
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			p, err := newPacer()
			if err != nil {
				errs[ci] = err
				return
			}
			defer p.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(res) {
					return
				}
				due := start.Add(rp.due[i])
				from := due
				if d := time.Until(due); d > 0 {
					if err := p.sleep(d); err != nil {
						errs[ci] = err
						return
					}
					from = time.Now()
				}
				sentAt := time.Now()
				status, body, err := c.do(http.MethodPost, "/v1/footprint", bodies[rp.idx[i]], "")
				done := time.Now()
				res[i] = sent{lat: done.Sub(from), late: sentAt.Sub(due), status: status, hash: hashOf(body), err: err}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return res, time.Since(start), nil
}

// capacityLoop sends a part of the capacity phase: each connection posts
// its next request as soon as the previous answer arrives, until dur has
// passed. It writes the answers in stream order into res, which is as
// long as idx, and returns how many there are and how long the part took.
func capacityLoop(conns []*conn, idx []int32, res []sent, bodies [][]byte, dur time.Duration) (int, time.Duration, error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(idx) {
					return
				}
				t0 := time.Now()
				status, body, err := c.do(http.MethodPost, "/v1/footprint", bodies[idx[i]], "")
				res[i] = sent{lat: time.Since(t0), status: status, hash: hashOf(body), err: err}
			}
		}(c)
	}
	wg.Wait()
	span := time.Since(start)
	if int(next.Load()) > len(idx) {
		return 0, 0, fmt.Errorf("capacity phase ran past its %d planned requests; raise capacityCeiling", len(idx))
	}
	return int(next.Load()), span, nil
}

// warmSingle posts every hot scenario once, filling the cache.
func warmSingle(a *actd, bodies [][]byte) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newConn(a.url)
			defer c.close()
			for i := w; i < len(bodies); i += 2 {
				status, _, err := c.do(http.MethodPost, "/v1/footprint", bodies[i], "")
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm-up request answered %d", status)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runAssessSingle(seed uint64, dur time.Duration, z sizes) (*outcome, error) {
	capDur := dur * capacityShare / 100
	segDur := (dur - capDur) / time.Duration(len(z.ladder)*z.cycles)
	capN := int(capDur.Seconds() * capacityCeiling)
	plan, err := planSingle(seed, z.hotN, z.ladder, segDur, z.cycles, capN)
	if err != nil {
		return nil, err
	}
	a, setupS, err := setupLoop(z.setupReps, func() (*actd, error) {
		a, err := startActd(serverOpts{})
		if err != nil {
			return nil, err
		}
		if err := warmSingle(a, plan.bodies[:plan.hotN]); err != nil {
			a.stop()
			return nil, err
		}
		return a, nil
	}, (*actd).stop)
	if err != nil {
		return nil, err
	}
	defer a.stop()
	conns := []*conn{newConn(a.url), newConn(a.url)}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	before, err := scrape(conns[0])
	if err != nil {
		return nil, err
	}
	// The capacity phase runs in cycles+1 equal parts, before, between
	// and after the walks of the ladder, so its samples span the whole
	// run rather than one stretch of it.
	segs := make([][]sent, len(plan.segs))
	spans := make([]time.Duration, len(plan.segs))
	// The answers go into one array sized for the whole phase up front, so
	// the live heap read after the run does not depend on how many
	// requests the run managed.
	capRes := make([]sent, len(plan.capacity))
	capDone, capSpan := 0, time.Duration(0)
	capPart := func() error {
		n, span, err := capacityLoop(conns, plan.capacity[capDone:], capRes[capDone:], plan.bodies, capDur/time.Duration(z.cycles+1))
		capDone, capSpan = capDone+n, capSpan+span
		return err
	}
	for si, sp := range plan.segs {
		if si%len(z.ladder) == 0 {
			if err := capPart(); err != nil {
				return nil, err
			}
		}
		if segs[si], spans[si], err = openLoop(conns, sp, plan.bodies); err != nil {
			return nil, err
		}
	}
	if err := capPart(); err != nil {
		return nil, err
	}
	capRes = capRes[:capDone]
	after, err := scrape(conns[0])
	if err != nil {
		return nil, err
	}
	// The live heap is read with the generated inputs dropped, so it
	// measures the server; the oracle regenerates them from the seed.
	plan = nil
	heap := heapLiveMB()
	if plan, err = planSingle(seed, z.hotN, z.ladder, segDur, z.cycles, capN); err != nil {
		return nil, err
	}

	// Oracle, outside the timed interval: every answer must hash like
	// the direct document of the scenario it asked for.
	want := make([]uint64, len(plan.specs))
	for i, s := range plan.specs {
		d, err := directDoc(s)
		if err != nil {
			return nil, fmt.Errorf("oracle scenario %d: %w", i, err)
		}
		want[i] = hashOf(d)
	}
	type rungStats struct {
		all, late, cold lats
		growth          lats // per segment: how much later the generator ran at its end than at its start
		span            time.Duration
		bad             int
	}
	rungs := make([]rungStats, len(z.ladder))
	o := &outcome{}
	for si, sp := range plan.segs {
		rs := &rungs[sp.rung]
		var late lats
		for i, s := range segs[si] {
			ok := s.err == nil && s.status == http.StatusOK && s.hash == want[sp.idx[i]]
			if s.err == nil && s.status == http.StatusOK && !ok {
				o.wrong++
			}
			o.count(ok)
			if !ok {
				rs.bad++
			}
			rs.all = append(rs.all, us(s.lat))
			late = append(late, us(s.late))
			if int(sp.idx[i]) >= plan.hotN {
				rs.cold = append(rs.cold, us(s.lat))
			}
		}
		rs.late = append(rs.late, late...)
		rs.span += spans[si]
		if q := len(late) / 4; q > 0 {
			rs.growth = append(rs.growth, pct(append(lats(nil), late[len(late)-q:]...), 50)-pct(append(lats(nil), late[:q]...), 50))
		}
	}
	o.row("setup_s", "s", setupS, z.setupReps)
	sloRate, sloN := 0.0, 0
	for ri, rs := range rungs {
		// The backlog grows when the generator falls further behind over
		// a segment, in the median segment of the rung.
		growing := len(rs.growth) > 0 && pct(rs.growth, 50) > sloLimitUS
		sorted := append(lats(nil), rs.all...)
		o.row(fmt.Sprintf("footprint.rung%d.offered_rps", ri), "req/s", z.ladder[ri], len(sorted))
		o.row(fmt.Sprintf("footprint.rung%d.p50_us", ri), "us", pct(sorted, 50), len(sorted))
		o.row(fmt.Sprintf("footprint.rung%d.p90_us", ri), "us", pct(sorted, 90), len(sorted))
		o.row(fmt.Sprintf("footprint.rung%d.p99_us", ri), "us", pct(sorted, 99), len(sorted))
		if rs.bad == 0 && pct(sorted, sloPct) <= sloLimitUS && !growing {
			sloRate, sloN = float64(len(sorted))/rs.span.Seconds(), len(sorted)
		}
	}
	var capAll, capCold lats
	for i, s := range capRes {
		idx := plan.capacity[i]
		ok := s.err == nil && s.status == http.StatusOK && s.hash == want[idx]
		if s.err == nil && s.status == http.StatusOK && !ok {
			o.wrong++
		}
		o.count(ok)
		capAll = append(capAll, us(s.lat))
		if int(idx) >= plan.hotN {
			capCold = append(capCold, us(s.lat))
		}
	}
	capRate := float64(len(capRes)) / capSpan.Seconds()
	mid := rungs[len(rungs)/2]
	o.row("fail_ratio", "failed/attempted", float64(o.failed)/float64(o.attempted), o.attempted)
	o.row("heap_live_mb", "MB", heap, 1)
	o.latRows("footprint", "us", mid.all, 95, 99)
	o.row("footprint.slo_rps", "req/s", sloRate, sloN)
	o.row("footprint.cold.p50_us", "us", pct(mid.cold, 50), len(mid.cold))
	o.row("generator.late.p50_us", "us", pct(mid.late, 50), len(mid.late))
	o.row("generator.late.p99_us", "us", pct(mid.late, 99), len(mid.late))
	o.row("capacity.rps", "req/s", capRate, len(capAll))
	o.latRows("capacity", "us", capAll, 99)
	o.row("capacity.cold.p50_us", "us", pct(capCold, 50), len(capCold))
	counterRows(o, after.delta(before))

	o.emit("setup_s", "s", setupS, z.setupReps)
	o.emit("p50_us", "us", pct(capAll, 50), len(capAll))
	o.emit("aux_p50_us", "us", pct(capCold, 50), len(capCold))
	o.emit("rate_per_s", "1/s", capRate, len(capAll))
	o.emit("heap_live_mb", "MB", heap, 1)
	return o, nil
}

// counterRows prints the program's own counters over the timed phase.
func counterRows(o *outcome, d promScrape) {
	reqs := d.total("actd_requests_total")
	hits, misses := d.total("actd_cache_hits_total"), d.total("actd_cache_misses_total")
	if hits+misses > 0 {
		o.row("serve.cache_hit_ratio", "hits/lookups", hits/(hits+misses), int(hits+misses))
	}
	if reqs > 0 {
		o.row("serve.retries_per_req", "retries/req", d.total("actd_retries_total")/reqs, int(reqs))
		o.row("serve.shed_ratio", "shed/req", d.total("actd_shed_total")/reqs, int(reqs))
		o.row("serve.scenarios_per_req", "scenarios/req", d.total("actd_scenarios_total")/reqs, int(reqs))
	}
	if n := d.total("actd_script_steps_count"); n > 0 {
		o.row("script.steps_per_req", "steps/req", d.total("actd_script_steps_sum")/n, int(n))
	}
	if n := d.total("actd_fleet_ingest_total"); n > 0 {
		o.row("fleet.replaced_ratio", "replaced/devices", d["actd_fleet_ingest_total{code=\"replaced\"}"]/n, int(n))
	}
	if n := d.total("actd_cluster_scatter_total"); n > 0 {
		o.row("cluster.full_scatter_ratio", "full/scatters", d["actd_cluster_scatter_total{outcome=\"full\"}"]/n, int(n))
	}
}

// ---- assess-batch ----

type batchSent struct {
	j      int
	lat    time.Duration
	status int
	hash   uint64
	err    error
}

type scriptSent struct {
	j      int
	lat    time.Duration
	status int
	body   []byte
	err    error
}

// closedLoop calls fn with 0, 1, 2, ... until the deadline passes or fn
// fails.
func closedLoop(deadline time.Time, fn func(j int) error) error {
	for j := 0; time.Now().Before(deadline); j++ {
		if err := fn(j); err != nil {
			return err
		}
	}
	return nil
}

// warmBatchBase offsets the warm-up batch indices away from the timed
// ones, so set-up does not pre-answer the timed stream.
const warmBatchBase = 1 << 30

func runAssessBatch(seed uint64, dur time.Duration, z sizes) (*outcome, error) {
	pool, err := newBatchPool(seed, z.poolN)
	if err != nil {
		return nil, err
	}
	warmScript, err := newScriptSweep(seed, warmBatchBase, z.batchN)
	if err != nil {
		return nil, err
	}
	a, setupS, err := setupLoop(z.setupReps, func() (*actd, error) {
		a, err := startActd(serverOpts{})
		if err != nil {
			return nil, err
		}
		c := newConn(a.url)
		defer c.close()
		for k := 0; k < z.warmBatches; k++ {
			body, _ := pool.batch(seed, warmBatchBase+k, z.batchN)
			if status, _, err := c.do(http.MethodPost, "/v1/footprint", body, ""); err != nil || status != http.StatusOK {
				a.stop()
				return nil, fmt.Errorf("warm-up batch: status %d: %v", status, err)
			}
		}
		if status, _, err := c.do(http.MethodPost, "/v1/script", warmScript.body, ""); err != nil || status != http.StatusOK {
			a.stop()
			return nil, fmt.Errorf("warm-up script: status %d: %v", status, err)
		}
		return a, nil
	}, (*actd).stop)
	if err != nil {
		return nil, err
	}
	defer a.stop()
	ca, cb := newConn(a.url), newConn(a.url)
	defer ca.close()
	defer cb.close()
	before, err := scrape(ca)
	if err != nil {
		return nil, err
	}
	var batches []batchSent
	var scripts []scriptSent
	var spanA time.Duration
	var errA, errB error
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errA = closedLoop(deadline, func(j int) error {
			body, _ := pool.batch(seed, j, z.batchN)
			t0 := time.Now()
			status, resp, err := ca.do(http.MethodPost, "/v1/footprint", body, "")
			batches = append(batches, batchSent{j, time.Since(t0), status, hashOf(resp), err})
			return nil
		})
		spanA = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		errB = closedLoop(deadline, func(j int) error {
			sw, err := newScriptSweep(seed, j, z.batchN)
			if err != nil {
				return err
			}
			t0 := time.Now()
			status, resp, err := cb.do(http.MethodPost, "/v1/script", sw.body, "")
			scripts = append(scripts, scriptSent{j, time.Since(t0), status, bytes.Clone(resp), err})
			return nil
		})
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		return nil, fmt.Errorf("generating inputs: %v %v", errA, errB)
	}
	after, err := scrape(ca)
	if err != nil {
		return nil, err
	}
	pool = nil
	heap := heapLiveMB()
	if pool, err = newBatchPool(seed, z.poolN); err != nil {
		return nil, err
	}

	o := &outcome{}
	docs := map[int][]byte{}
	var bl lats
	for _, b := range batches {
		_, idx := pool.batch(seed, b.j, z.batchN)
		elems := make([][]byte, len(idx))
		for k, i := range idx {
			if docs[i] == nil {
				d, err := directDoc(pool.specs[i])
				if err != nil {
					return nil, fmt.Errorf("oracle scenario %d: %w", i, err)
				}
				docs[i] = d
			}
			elems[k] = docs[i]
		}
		ok := b.err == nil && b.status == http.StatusOK && b.hash == hashOf(batchBody(elems))
		if b.err == nil && b.status == http.StatusOK && !ok {
			o.wrong++
		}
		o.count(ok)
		bl = append(bl, us(b.lat))
	}
	var sl lats
	for _, s := range scripts {
		ok := s.err == nil && s.status == http.StatusOK
		if ok {
			sw, err := newScriptSweep(seed, s.j, z.batchN)
			if err != nil {
				return nil, err
			}
			want, err := sweepTotal(sw.specs)
			if err != nil {
				return nil, fmt.Errorf("oracle sweep %d: %w", s.j, err)
			}
			got, _, err := scriptOutput(s.body)
			if ok = err == nil && got == want; !ok {
				o.wrong++
			}
		}
		o.count(ok)
		sl = append(sl, us(s.lat))
	}
	scen := float64(len(batches)*z.batchN) / spanA.Seconds()
	o.row("setup_s", "s", setupS, z.setupReps)
	o.row("fail_ratio", "failed/attempted", float64(o.failed)/float64(o.attempted), o.attempted)
	o.row("heap_live_mb", "MB", heap, 1)
	o.latRows("footprint", "us", bl, 95, 99)
	o.row("footprint.scenarios_per_s", "scenarios/s", scen, len(batches)*z.batchN)
	o.latRows("script", "ms", sl, 90)
	counterRows(o, after.delta(before))

	o.emit("setup_s", "s", setupS, z.setupReps)
	o.emit("p50_us", "us", pct(bl, 50), len(bl))
	o.emit("aux_p50_us", "us", pct(sl, 50), len(sl))
	o.emit("rate_per_s", "1/s", scen, len(batches)*z.batchN)
	o.emit("heap_live_mb", "MB", heap, 1)
	return o, nil
}

// ---- fleet-rw and cluster ----

// ingested is one timed ingest request.
type ingested struct {
	start, end time.Time
	lines      int // device lines in the chunk
	status     int
	body       []byte
	err        error
}

// read is one timed summary request.
type read struct {
	start, end time.Time
	shape      int
	status     int
	devices    int
	parsed     bool
	err        error
}

// preloadChunk is the devices per request of the cluster set-up ingest
// and of the traced runs' preloads.
const preloadChunk = 500

// preload ingests devices [0, n) in chunks over one connection, in
// order, so an oracle fed the same lines sees the same sequence.
func preload(c *conn, gen *deviceGen, n, chunk int) error {
	for k := 0; k < n; k += chunk {
		body, err := gen.chunk(k, min(chunk, n-k))
		if err != nil {
			return err
		}
		status, resp, err := c.do(http.MethodPost, "/v1/fleet/devices", body, "")
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("preload answered %d: %.200s", status, resp)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// rwPhase runs the timed phase shared by fleet-rw and cluster. One
// connection streams ingest chunks after the preloaded lines: closed loop,
// or with pace set one chunk per pace, reading summaries itself until the
// next chunk is due so both connections keep the server busy. The other
// connection rotates through the summary shapes closed loop.
func rwPhase(base string, gen *deviceGen, first, chunk int, pace time.Duration, shapes []string, dur time.Duration) ([]ingested, []read, time.Duration, error) {
	ci, cr := newConn(base), newConn(base)
	defer ci.close()
	defer cr.close()
	var ins []ingested
	var rds, rdsI []read
	var spanI time.Duration
	var errI error
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		errI = closedLoop(deadline, func(j int) error {
			body, err := gen.chunk(first+j*chunk, chunk)
			if err != nil {
				return err
			}
			for k := 1; pace > 0 && time.Now().Before(start.Add(time.Duration(j)*pace)); k++ {
				rdsI = append(rdsI, readSummary(ci, shapes, k))
			}
			t0 := time.Now()
			status, resp, err := ci.do(http.MethodPost, "/v1/fleet/devices", body, "")
			ins = append(ins, ingested{t0, time.Now(), chunk, status, bytes.Clone(resp), err})
			return nil
		})
		spanI = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		_ = closedLoop(deadline, func(j int) error { // reads never fail the loop
			rds = append(rds, readSummary(cr, shapes, j))
			return nil
		})
	}()
	wg.Wait()
	return ins, append(rds, rdsI...), spanI, errI
}

// readSummary reads summary shape j (mod the shapes) and notes the device
// count the answer reports.
func readSummary(c *conn, shapes []string, j int) read {
	shape := j % len(shapes)
	t0 := time.Now()
	status, resp, err := c.do(http.MethodGet, "/v1/fleet/summary"+shapes[shape], nil, "")
	n, ok := summaryDevices(resp)
	return read{t0, time.Now(), shape, status, n, ok, err}
}

// checkRW replays the ingest stream into an oracle registry and checks
// every timed answer: each ingest result must match the oracle's, and
// each summary must count a device total the registry actually held
// while the read was in flight. It returns the oracle registry.
func checkRW(o *outcome, gen *deviceGen, preloadN int, ins []ingested, rds []read) (*fleet.Registry, error) {
	oracle := fleet.New(fleet.Config{})
	pre, err := gen.chunk(0, preloadN)
	if err != nil {
		return nil, err
	}
	if _, err := oracle.IngestNDJSON(bytes.NewReader(pre), 0); err != nil {
		return nil, fmt.Errorf("oracle preload: %w", err)
	}
	// after[k] is the registry size once k timed chunks are applied.
	after := []int{oracle.Len()}
	line := preloadN
	for _, in := range ins {
		body, err := gen.chunk(line, in.lines)
		if err != nil {
			return nil, err
		}
		line += in.lines
		want, err := oracle.IngestNDJSON(bytes.NewReader(body), 0)
		if err != nil {
			return nil, fmt.Errorf("oracle ingest: %w", err)
		}
		after = append(after, oracle.Len())
		ok := in.err == nil && in.status == http.StatusOK
		if ok {
			var got fleet.IngestResult
			if ok = json.Unmarshal(in.body, &got) == nil && got == want; !ok {
				o.wrong++
			}
		}
		o.count(ok)
	}
	for _, r := range rds {
		// Chunks finished before the read began are all in; chunks begun
		// before it ended may be, wholly or in part.
		lo := sort.Search(len(ins), func(k int) bool { return !ins[k].end.Before(r.start) })
		hi := sort.Search(len(ins), func(k int) bool { return !ins[k].start.Before(r.end) })
		ok := r.err == nil && r.status == http.StatusOK
		if ok {
			if ok = r.parsed && r.devices >= after[lo] && r.devices <= after[hi]; !ok {
				o.wrong++
			}
		}
		o.count(ok)
	}
	return oracle, nil
}

// checkFinal compares the server's summary for every shape with the
// oracle registry's document, byte for byte.
func checkFinal(o *outcome, base string, oracle *fleet.Registry, shapes []string, queries []fleet.Query) error {
	c := newConn(base)
	defer c.close()
	for i, shape := range shapes {
		doc, err := oracle.Query(queries[i])
		if err != nil {
			return err
		}
		var want bytes.Buffer
		if err := report.Encode(&want, doc); err != nil {
			return err
		}
		status, got, err := c.do(http.MethodGet, "/v1/fleet/summary"+shape, nil, "")
		ok := err == nil && status == http.StatusOK && bytes.Equal(got, want.Bytes())
		if err == nil && status == http.StatusOK && !ok {
			o.wrong++
			o.notes = append(o.notes, fmt.Sprintf("final summary %q differs from the oracle", shape))
		}
		o.count(ok)
	}
	return nil
}

// shapeName names a summary query shape in a metric name.
func shapeName(shape string) string {
	switch shape {
	case "":
		return "plain"
	case "?by=region":
		return "by_region"
	case "?top=10":
		return "top10"
	}
	return strings.NewReplacer("?", "", "=", "_", "&", "_").Replace(shape)
}

var (
	fleetQueries   = []fleet.Query{{}, {GroupBy: "region"}, {TopK: 10}}
	clusterQueries = []fleet.Query{{}, {GroupBy: "region"}}
	// The final check also reads the top-10 shape from the cluster.
	finalShapes  = []string{"", "?by=region", "?top=10"}
	finalQueries = []fleet.Query{{}, {GroupBy: "region"}, {TopK: 10}}
)

// rwRows prints the fleet-rw and cluster figures. readsRate selects the
// summary read throughput as the workload's rate (cluster, whose writes
// are paced) instead of the ingest throughput (fleet-rw).
func rwRows(o *outcome, setupS float64, z sizes, heap float64, ins []ingested, rds []read, spanI, dur time.Duration, shapes []string, readsRate bool) {
	var il, rl lats
	devices := 0
	for _, in := range ins {
		il = append(il, us(in.end.Sub(in.start)))
		devices += in.lines
	}
	for _, r := range rds {
		rl = append(rl, us(r.end.Sub(r.start)))
	}
	ingestRate := float64(devices) / spanI.Seconds()
	readRate := float64(len(rds)) / dur.Seconds()
	o.row("setup_s", "s", setupS, z.setupReps)
	o.row("fail_ratio", "failed/attempted", float64(o.failed)/float64(o.attempted), o.attempted)
	o.row("heap_live_mb", "MB", heap, 1)
	o.row("ingest.devices_per_s", "devices/s", ingestRate, devices)
	o.row("summary.reads_per_s", "reads/s", readRate, len(rds))
	o.latRows("ingest.chunk", "us", append(lats(nil), il...))
	o.latRows("summary", "us", append(lats(nil), rl...), 95, 99)
	for s, shape := range shapes {
		var l lats
		for _, r := range rds {
			if r.shape == s {
				l = append(l, us(r.end.Sub(r.start)))
			}
		}
		o.row("summary."+shapeName(shape)+".p50_us", "us", pct(l, 50), len(l))
	}
	o.emit("setup_s", "s", setupS, z.setupReps)
	o.emit("p50_us", "us", pct(rl, 50), len(rl))
	o.emit("aux_p50_us", "us", pct(il, 50), len(il))
	if readsRate {
		o.emit("rate_per_s", "1/s", readRate, len(rds))
	} else {
		o.emit("rate_per_s", "1/s", ingestRate, devices)
	}
	o.emit("heap_live_mb", "MB", heap, 1)
}

func runFleetRW(seed uint64, dur time.Duration, z sizes) (*outcome, error) {
	gen, err := newDeviceGen(seed, saltFleet)
	if err != nil {
		return nil, err
	}
	a, setupS, err := setupLoop(z.setupReps, func() (*actd, error) {
		a, err := startActd(serverOpts{durable: true})
		if err != nil {
			return nil, err
		}
		c := newConn(a.url)
		defer c.close()
		if err := preload(c, gen, z.preload, z.chunk); err != nil {
			a.stop()
			return nil, err
		}
		return a, nil
	}, (*actd).stop)
	if err != nil {
		return nil, err
	}
	defer a.stop()
	before, err := scrapeAll([]*actd{a})
	if err != nil {
		return nil, err
	}
	ins, rds, spanI, err := rwPhase(a.url, gen, z.preload, z.chunk, 0, fleetShapes, dur)
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll([]*actd{a})
	if err != nil {
		return nil, err
	}
	gen = nil
	heap := heapLiveMB()
	if gen, err = newDeviceGen(seed, saltFleet); err != nil {
		return nil, err
	}
	o := &outcome{}
	oracle, err := checkRW(o, gen, z.preload, ins, rds)
	if err != nil {
		return nil, err
	}
	if err := checkFinal(o, a.url, oracle, fleetShapes, fleetQueries); err != nil {
		return nil, err
	}
	rwRows(o, setupS, z, heap, ins, rds, spanI, dur, fleetShapes, false)
	counterRows(o, after.delta(before))
	o.notes = append(o.notes, "fleet store and WAL on ramFS, an in-process RAM filesystem")
	return o, nil
}

const clusterSize = 3

// clusterPace is the interval between the cluster workload's ingest
// chunks: a trickle of writes (250 devices/s at 25 per chunk) beside
// closed-loop coordinator reads on both connections, whose throughput is
// the workload's rate. Reading on both keeps the members' processors
// busy: with one reader the figures carried the wake-up latency of an
// idle VM, and reads/s spread 0.22 over ten seeds against 0.10 with two.
// The trickle is small against the 20000 preloaded devices because a
// summary's cost grows with the distinct BoMs each member hashes into
// its partial: at 2000 devices/s onto 10000 the read rate halved over a
// run, so the figure hung on how far the ingest had got rather than on
// a steady state.
const clusterPace = 100 * time.Millisecond

func runCluster(seed uint64, dur time.Duration, z sizes) (*outcome, error) {
	gen, err := newDeviceGen(seed, saltCluster)
	if err != nil {
		return nil, err
	}
	ms, setupS, err := setupLoop(z.setupReps, func() ([]*actd, error) {
		ms, err := startCluster(clusterSize, nil)
		if err != nil {
			return nil, err
		}
		c := newConn(ms[0].url)
		defer c.close()
		if err := preload(c, gen, z.clusterLoad, preloadChunk); err != nil {
			stopAll(ms)
			return nil, err
		}
		return ms, nil
	}, stopAll)
	if err != nil {
		return nil, err
	}
	defer stopAll(ms)
	before, err := scrapeAll(ms)
	if err != nil {
		return nil, err
	}
	ins, rds, spanI, err := rwPhase(ms[0].url, gen, z.clusterLoad, z.clusterChunk, clusterPace, clusterShapes, dur)
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(ms)
	if err != nil {
		return nil, err
	}
	gen = nil
	heap := heapLiveMB()
	if gen, err = newDeviceGen(seed, saltCluster); err != nil {
		return nil, err
	}
	o := &outcome{}
	oracle, err := checkRW(o, gen, z.clusterLoad, ins, rds)
	if err != nil {
		return nil, err
	}
	if err := checkFinal(o, ms[0].url, oracle, finalShapes, finalQueries); err != nil {
		return nil, err
	}
	rwRows(o, setupS, z, heap, ins, rds, spanI, dur, clusterShapes, true)
	counterRows(o, after.delta(before))
	return o, nil
}
