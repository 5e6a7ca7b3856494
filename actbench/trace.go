package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run. It measures nothing end to end; it answers where a
// request's time goes. Each request of the workload's stream is sent over
// loopback to two identically set-up server sets in turn: a plain one,
// for the runtime counters and the tracing overhead, and one whose
// handler is wrapped in a span. Then the same requests are replayed
// through each layer's public functions, each call wrapped in a span
// whose parent is the request's handler span. Spans are recorded only
// here, in the benchmark, never inside the program.

// span is one timed interval. Attr marks a layer call the handler makes
// itself, whose time is subtracted from the handler's to give
// serve.unattributed; other spans are side measurements (the same work
// without the WAL, say) or off-path probes, which have no parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // items the span covered: keys, bytes, devices
	Attr   bool   `json:"attr,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call is where a replayed request's layer spans attach.
type call struct {
	t      *tracer
	req    string
	parent int64 // 0 for probes
}

// time runs fn inside a span. attr spans count toward the handler's
// attributed time; a probe (no parent) never does.
func (c call) time(name string, n int, attr bool, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	c.t.add(span{
		ID: c.t.newID(), Parent: c.parent, Req: c.req, Name: name,
		Start: int64(start.Sub(c.t.epoch)), End: int64(end.Sub(c.t.epoch)),
		N: n, Attr: attr && c.parent != 0,
	})
	return err
}

// write stores the spans as gzipped JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayReq is one request of a traced run's log.
type replayReq struct {
	kind  string // "single", "batch", "script", "ingest", "summary"
	path  string
	body  []byte // nil for GET
	j     int    // scenario index, batch or sweep number, first device line, or shape
	lines int    // devices in an ingest chunk
}

func (r replayReq) method() string {
	if r.body == nil {
		return http.MethodGet
	}
	return http.MethodPost
}

// answer is one replayed response kept for the oracle.
type answer struct {
	status int
	hash   uint64
	body   []byte // kept only for small answers
	rtt    time.Duration
	err    error
}

// traceKit is what the traced run needs from a workload.
type traceKit struct {
	own   []string // probe kinds this workload exercises itself
	start func(wrap func(member int) func(http.Handler) http.Handler) ([]*actd, error)
	next  func(i int) (replayReq, error)
	// check books every answer of one replay against the oracle.
	check func(o *outcome, log []replayReq, ans []answer) error
	// direct replays the log through the layers; parents[i] is request
	// i's handler span. With live set the traced servers stay up for it
	// (the cluster gather is replayed against the live members);
	// otherwise they are stopped first, so their heap does not slow the
	// replay down.
	direct func(t *tracer, n *replayCounts, log []replayReq, parents []int64, traced []*actd) error
	live   bool
}

// send sends request i of a replay. With a tracer it carries the
// request id and records the request's http span.
func send(c *conn, i int, r replayReq, t *tracer) answer {
	id := ""
	if t != nil {
		id = reqID(i)
	}
	start := time.Now()
	status, body, err := c.do(r.method(), r.path, r.body, id)
	end := time.Now()
	a := answer{status: status, hash: hashOf(body), rtt: end.Sub(start), err: err}
	if len(body) < 4096 {
		a.body = bytes.Clone(body)
	}
	if t != nil {
		t.add(span{ID: httpID(i), Req: id, Name: "http", Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	}
	return a
}

// handlerSpans wraps a member's handler: the coordinator's requests get
// their "serve.handler" span, and hops that reach other members get
// "serve.peer_handler" spans under it.
func handlerSpans(t *tracer) func(member int) func(http.Handler) http.Handler {
	return func(member int) func(http.Handler) http.Handler {
		return func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				start := time.Now()
				h.ServeHTTP(w, r)
				end := time.Now()
				id := r.Header.Get("X-Request-Id")
				i, err := strconv.Atoi(strings.TrimPrefix(id, "b-"))
				if err != nil || !strings.HasPrefix(id, "b-") {
					return // a scrape or a set-up request
				}
				s := span{ID: handlerID(i), Parent: httpID(i), Req: id, Name: "serve.handler",
					Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
				if member != 0 {
					s.ID, s.Parent, s.Name = t.newID(), handlerID(i), "serve.peer_handler"
				}
				t.add(s)
			})
		}
	}
}

// goSampler sums runtime/metrics deltas over the sends of a replay,
// leaving out the time spent generating requests, and tracks the heap
// peak. The figures cover the whole process: the server and the client.
type goSampler struct {
	cur, tmp []metrics.Sample
	sum      []float64
	peak     atomic.Uint64
	stop     chan struct{}
	done     sync.WaitGroup
}

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func samples() []metrics.Sample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	return s
}

func startGoSampler() *goSampler {
	g := &goSampler{cur: samples(), tmp: samples(), sum: make([]float64, len(goMetricNames)), stop: make(chan struct{})}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > g.peak.Load() {
				g.peak.Store(v)
			}
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return g
}

func (g *goSampler) begin() { metrics.Read(g.cur) }

func (g *goSampler) end() {
	metrics.Read(g.tmp)
	for i := range g.tmp {
		if g.tmp[i].Value.Kind() == metrics.KindUint64 {
			g.sum[i] += float64(g.tmp[i].Value.Uint64() - g.cur[i].Value.Uint64())
		} else {
			g.sum[i] += g.tmp[i].Value.Float64() - g.cur[i].Value.Float64()
		}
	}
}

func (g *goSampler) finish() {
	close(g.stop)
	g.done.Wait()
}

// Request i's http span has ID 2i+1 and its handler span 2i+2, so the
// client and the handler wrapper agree without sharing state; the
// tracer numbers every other span above them.
func httpID(i int) int64    { return int64(2*i + 1) }
func handlerID(i int) int64 { return int64(2*i + 2) }

// runTraced runs one workload's traced run.
func runTraced(workload string, seed uint64, dur time.Duration, z sizes, dir string) (*outcome, error) {
	kit, err := kits[workload](seed, z)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	t.ids.Store(handlerID(z.replayMax))
	// Two identically set-up server sets: one plain, one whose handlers
	// record spans. Each request goes to the plain set and then to the
	// traced one, so both see the same conditions and the difference in
	// round trip is the tracing overhead.
	untraced, err := kit.start(func(int) func(http.Handler) http.Handler {
		return func(h http.Handler) http.Handler { return h }
	})
	if err != nil {
		return nil, err
	}
	defer stopAll(untraced)
	traced, err := kit.start(handlerSpans(t))
	if err != nil {
		return nil, err
	}
	defer stopAll(traced)

	before, err := scrapeAll(traced)
	if err != nil {
		return nil, err
	}
	cu, ct := newConn(untraced[0].url), newConn(traced[0].url)
	var log []replayReq
	var base, ans []answer
	g := startGoSampler()
	cpu0, cpu1 := samples(), samples()
	// The runtime updates its CPU classes only when a GC cycle ends, so a
	// collection on each side of the replay brings them up to date: the
	// GC share then covers the collection of everything the replay
	// allocated, and is defined even when the replay itself ends no cycle.
	runtime.GC()
	metrics.Read(cpu0)
	deadline := time.Now().Add(2 * dur / 3)
	for i := 0; i < z.replayMax && (i == 0 || time.Now().Before(deadline)); i++ {
		r, err := kit.next(i)
		if err != nil {
			g.finish()
			return nil, err
		}
		log = append(log, r)
		g.begin()
		base = append(base, send(cu, i, r, nil))
		g.end()
		ans = append(ans, send(ct, i, r, t))
	}
	runtime.GC()
	metrics.Read(cpu1)
	g.finish()
	cu.close()
	ct.close()
	for i := 2; i < 4; i++ { // GC and total CPU over the whole phase
		g.sum[i] = cpu1[i].Value.Float64() - cpu0[i].Value.Float64()
	}
	after, err := scrapeAll(traced)
	if err != nil {
		return nil, err
	}
	if err := stopAll(untraced); err != nil {
		return nil, err
	}

	o := &outcome{}
	if err := kit.check(o, log, base); err != nil {
		return nil, err
	}
	if err := kit.check(o, log, ans); err != nil {
		return nil, err
	}

	// The layer replay, then probes through the layer groups this
	// workload's requests never reach.
	if !kit.live {
		if err := stopAll(traced); err != nil {
			return nil, err
		}
	}
	var n replayCounts
	parents := make([]int64, len(log))
	for i := range parents {
		parents[i] = handlerID(i)
	}
	if err := kit.direct(t, &n, log, parents, traced); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	if err := stopAll(traced); err != nil {
		return nil, err
	}
	for _, kind := range probeKinds {
		if !slices.Contains(kit.own, kind) {
			if err := probes[kind](t, &n, seed); err != nil {
				return nil, fmt.Errorf("probe %s: %w", kind, err)
			}
		}
	}
	if err := t.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl.gz", workload, seed))); err != nil {
		return nil, err
	}
	layerMetrics(o, t, &n, base, ans, g, after.delta(before))
	return o, nil
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count int
	total time.Duration
	items int
}

func (s spanStats) meanUS() float64 { return us(s.total) / float64(max(s.count, 1)) }

func (s spanStats) nsPerItem() float64 { return float64(s.total) / float64(max(s.items, 1)) }

// layerMetrics derives the self-time table and the per-layer metrics.
func layerMetrics(o *outcome, t *tracer, n *replayCounts, base, ans []answer, g *goSampler, d promScrape) {
	byID := map[int64]span{}
	attr := map[int64]time.Duration{}
	stats := map[string]spanStats{}
	selfBy := map[string]time.Duration{} // attributed layer time of the workload's own requests
	selfN := map[string]int{}
	for _, s := range t.spans {
		byID[s.ID] = s
		st := stats[s.Name]
		st.count++
		st.total += s.dur()
		st.items += s.N
		stats[s.Name] = st
		if s.Attr {
			attr[s.Parent] += s.dur()
			name := s.Name
			if strings.HasPrefix(name, "fleet.query.") {
				name = "fleet.query"
			}
			selfBy[name] += s.dur()
			selfN[name]++
		}
	}
	nreq := len(ans)
	reqs := float64(nreq)
	var rtt, handler, transport, unattr time.Duration
	for i := 0; i < nreq; i++ {
		h, hs := byID[httpID(i)], byID[handlerID(i)]
		rtt += h.dur()
		handler += hs.dur()
		transport += h.dur() - hs.dur()
		unattr += hs.dur() - attr[handlerID(i)]
	}
	perReq := func(d time.Duration) float64 { return us(d) / reqs }
	meanRTT := perReq(rtt)

	// The self-time table: where one request's round trip goes.
	o.self = append(o.self, selfRow{"http.transport", perReq(transport), nreq})
	o.self = append(o.self, selfRow{"serve.unattributed", perReq(unattr), nreq})
	names := make([]string, 0, len(selfBy))
	for name := range selfBy {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o.self = append(o.self, selfRow{name, perReq(selfBy[name]), selfN[name]})
	}
	o.selfTotal = meanRTT

	var baseRTT time.Duration
	for _, a := range base {
		baseRTT += a.rtt
	}
	overhead := 100 * (meanRTT/perReq(baseRTT) - 1)

	hitRatio := float64(n.hits.Load()) / float64(max(n.lookups.Load(), 1))
	lookups := d.total("actd_cache_hits_total") + d.total("actd_cache_misses_total")
	if lookups > 0 {
		hitRatio = d.total("actd_cache_hits_total") / lookups
	}
	steps := float64(n.steps.Load()) / float64(max(n.programs.Load(), 1))
	if c := d.total("actd_script_steps_count"); c > 0 {
		steps = d.total("actd_script_steps_sum") / c
	}
	wal := stats["fleet.ingest"].nsPerItem() - stats["fleet.ingest_nostore"].nsPerItem()
	sent := float64(len(base))

	o.emit("http.rtt_us", "us", meanRTT, nreq)
	o.emit("http.transport_self_us", "us", perReq(transport), nreq)
	o.emit("serve.handler_us", "us", perReq(handler), nreq)
	o.emit("serve.unattributed_us", "us", perReq(unattr), nreq)
	o.emit("serve.cache_probe_ns", "ns", stats["serve.cache_probe"].nsPerItem(), stats["serve.cache_probe"].items)
	o.emit("serve.cache_hit_ratio", "ratio", hitRatio, int(max(lookups, float64(n.lookups.Load()))))
	o.emit("serve.retries_per_req", "retries/req", d.total("actd_retries_total")/reqs, nreq)
	o.emit("serve.shed_ratio", "ratio", d.total("actd_shed_total")/reqs, nreq)
	o.emit("resilience.admit_ns", "ns", stats["resilience.admit"].nsPerItem(), stats["resilience.admit"].count)
	o.emit("resilience.breaker_ns", "ns", stats["resilience.breaker"].nsPerItem(), stats["resilience.breaker"].count)
	o.emit("resilience.retry_ns", "ns", stats["resilience.retry"].nsPerItem(), stats["resilience.retry"].count)
	o.emit("scenario.decode_us", "us", stats["scenario.decode"].meanUS(), stats["scenario.decode"].count)
	o.emit("scenario.decode_ns_per_byte", "ns/B", stats["scenario.decode"].nsPerItem(), stats["scenario.decode"].items)
	o.emit("scenario.key_ns", "ns", stats["scenario.key"].nsPerItem(), stats["scenario.key"].items)
	o.emit("core.result_us", "us", stats["core.result"].meanUS(), stats["core.result"].count)
	o.emit("report.encode_us", "us", stats["report.encode"].meanUS(), stats["report.encode"].count)
	o.emit("colbatch.eval_us", "us", stats["colbatch.eval"].meanUS(), stats["colbatch.eval"].count)
	o.emit("colbatch.ns_per_scenario", "ns", stats["colbatch.eval"].nsPerItem(), stats["colbatch.eval"].items)
	o.emit("script.eval_ms", "ms", stats["script.eval"].meanUS()/1e3, stats["script.eval"].count)
	o.emit("script.steps_per_req", "steps", steps, stats["script.eval"].count)
	o.emit("script.encode_us", "us", stats["script.encode"].meanUS(), stats["script.encode"].count)
	o.emit("fleet.ingest_us_per_device", "us", stats["fleet.ingest"].nsPerItem()/1e3, stats["fleet.ingest"].items)
	o.emit("fleet.upsert_us_per_device", "us", stats["fleet.upsert"].nsPerItem()/1e3, stats["fleet.upsert"].items)
	o.emit("fleet.wal_us_per_device", "us", wal/1e3, stats["fleet.ingest"].items)
	o.emit("fleet.query_plain_us", "us", stats["fleet.query.plain"].meanUS(), stats["fleet.query.plain"].count)
	o.emit("fleet.query_by_region_us", "us", stats["fleet.query.by_region"].meanUS(), stats["fleet.query.by_region"].count)
	o.emit("fleet.query_top_us", "us", stats["fleet.query.top"].meanUS(), stats["fleet.query.top"].count)
	o.emit("fleet.summary_encode_us", "us", stats["fleet.summary_encode"].meanUS(), stats["fleet.summary_encode"].count)
	o.emit("cluster.ingest_us_per_device", "us", stats["cluster.ingest"].nsPerItem()/1e3, stats["cluster.ingest"].items)
	o.emit("cluster.gather_us", "us", stats["cluster.gather"].meanUS(), stats["cluster.gather"].count)
	o.emit("cluster.local_partial_us", "us", stats["cluster.local_partial"].meanUS(), stats["cluster.local_partial"].count)
	o.emit("cluster.fold_us", "us", stats["cluster.fold"].meanUS(), stats["cluster.fold"].count)
	o.emit("cluster.partial_bytes", "bytes", float64(stats["cluster.gather"].items)/float64(max(stats["cluster.gather"].count, 1)), stats["cluster.gather"].count)
	o.emit("go.alloc_bytes_per_req", "bytes", g.sum[0]/sent, len(base))
	o.emit("go.allocs_per_req", "objects", g.sum[1]/sent, len(base))
	o.emit("go.gc_cpu_fraction", "ratio", g.sum[2]/g.sum[3], len(base))
	o.emit("go.heap_peak_mb", "MB", float64(g.peak.Load())/(1<<20), len(base))
	o.emit("trace.overhead_pct", "%", overhead, len(base))
	o.table = append(o.table, o.out...)
}
