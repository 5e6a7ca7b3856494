package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"act/internal/cluster"
	"act/internal/colbatch"
	"act/internal/conform"
	"act/internal/fleet"
	"act/internal/parsweep"
	"act/internal/report"
	"act/internal/resilience"
	"act/internal/scenario"
	"act/internal/script"
	"act/internal/serve"
)

// The layer replays mirror what each actd handler calls, in the same
// order, through the packages' public functions. What they cannot call
// (the mux, the middleware's logging and metrics, the pool hop, response
// assembly) is what serve.unattributed_us measures.

// replayCounts tallies replay-side outcomes the spans do not carry.
type replayCounts struct {
	hits, lookups   atomic.Int64
	steps, programs atomic.Int64
}

// gates are a handler's resilience calls: admission, the handler's
// breaker (nil for handlers without one) and a retry policy.
type gates struct {
	admit *resilience.Admission
	brk   *resilience.Breaker
}

func newGates(breaker bool) gates {
	g := gates{admit: resilience.NewAdmission(resilience.AdmissionConfig{})}
	if breaker {
		g.brk = resilience.NewBreaker(resilience.BreakerConfig{FailureThreshold: 5, OpenFor: 5 * time.Second})
	}
	return g
}

var noop = func(context.Context, int) (struct{}, error) { return struct{}{}, nil }

// pass times the resilience calls a handler makes before its work:
// admission, the breaker, and retries Retry loops around the work.
func (g gates) pass(c call, retries int) error {
	ctx := context.Background()
	if err := c.time("resilience.admit", 1, true, func() error {
		release, err := g.admit.Acquire(ctx)
		if err == nil {
			release()
		}
		return err
	}); err != nil {
		return err
	}
	if g.brk != nil {
		if err := c.time("resilience.breaker", 1, true, func() error {
			done, err := g.brk.Allow()
			if err == nil {
				done(true)
			}
			return err
		}); err != nil {
			return err
		}
	}
	for k := 0; k < retries; k++ {
		if err := c.time("resilience.retry", 1, true, func() error {
			_, err := resilience.Retry(ctx, resilience.RetryPolicy{MaxAttempts: 3, Seed: 1}, noop)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// footprintReplay mirrors POST /v1/footprint: decode, key, cache probe,
// then on a miss the scalar model and the indented encoder (single
// objects) or the columnar engine (batches).
type footprintReplay struct {
	cache *serve.Cache[json.RawMessage]
	gates gates
	n     *replayCounts
}

func newFootprintReplay(n *replayCounts) *footprintReplay {
	return &footprintReplay{cache: serve.NewCache[json.RawMessage](4096), gates: newGates(true), n: n}
}

func (f *footprintReplay) single(c call, body []byte) error {
	// A single object passes the outer Retry and evalOne's inner one.
	if err := f.gates.pass(c, 2); err != nil {
		return err
	}
	var specs []*scenario.Spec
	if err := c.time("scenario.decode", len(body), true, func() (err error) {
		specs, _, err = scenario.ParseRequest(bytes.NewReader(body))
		return err
	}); err != nil {
		return err
	}
	spec := specs[0]
	var key string
	c.time("scenario.key", 1, true, func() error { key = spec.CanonicalKey(); return nil })
	var hit bool
	c.time("serve.cache_probe", 1, true, func() error { _, hit = f.cache.Get(key); return nil })
	f.n.lookups.Add(1)
	if hit {
		f.n.hits.Add(1)
		return nil
	}
	var res report.ResultJSON
	if err := c.time("core.result", 1, true, func() (err error) { res, err = spec.Result(); return err }); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := c.time("report.encode", 1, true, func() error {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}); err != nil {
		return err
	}
	f.cache.Put(key, buf.Bytes())
	return nil
}

func (f *footprintReplay) batch(c call, body []byte) error {
	if err := f.gates.pass(c, 1); err != nil {
		return err
	}
	var specs []*scenario.Spec
	if err := c.time("scenario.decode", len(body), true, func() (err error) {
		specs, _, err = scenario.ParseRequest(bytes.NewReader(body))
		return err
	}); err != nil {
		return err
	}
	keys := make([]string, len(specs))
	c.time("scenario.key", len(specs), true, func() error {
		for i, s := range specs {
			keys[i] = s.CanonicalKey()
		}
		return nil
	})
	var miss []int
	c.time("serve.cache_probe", len(specs), true, func() error {
		seen := make(map[string]bool, len(specs))
		for i, k := range keys {
			if _, ok := f.cache.Get(k); ok || seen[k] {
				continue
			}
			seen[k] = true
			miss = append(miss, i)
		}
		return nil
	})
	f.n.lookups.Add(int64(len(specs)))
	f.n.hits.Add(int64(len(specs) - len(miss)))
	if len(miss) == 0 {
		return nil
	}
	// The same chunked fan-out across the worker pool as the server.
	chunks := make([][]int, 0, (len(miss)+colbatch.DefaultChunk-1)/colbatch.DefaultChunk)
	for s := 0; s < len(miss); s += colbatch.DefaultChunk {
		chunks = append(chunks, miss[s:min(s+colbatch.DefaultChunk, len(miss))])
	}
	return c.time("colbatch.eval", len(miss), true, func() error {
		_, err := parsweep.MapErrCtx(context.Background(), runtime.GOMAXPROCS(0), chunks,
			func(_ context.Context, _ int, ch []int) (struct{}, error) {
				cs := make([]*scenario.Spec, len(ch))
				for j, i := range ch {
					cs[j] = specs[i]
				}
				r := colbatch.Eval(cs)
				defer r.Close()
				for j, i := range ch {
					if err := r.Err(j); err != nil {
						return struct{}{}, err
					}
					f.cache.Put(keys[i], bytes.Clone(r.Doc(j)))
				}
				return struct{}{}, nil
			})
		return err
	})
}

// scriptReplay mirrors POST /v1/script.
type scriptReplay struct {
	gates gates
	n     *replayCounts
}

func (s scriptReplay) run(c call, body []byte) error {
	if err := s.gates.pass(c, 1); err != nil {
		return err
	}
	var req struct {
		Source string `json:"source"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	var res *script.Result
	if err := c.time("script.eval", 1, true, func() (err error) {
		res, err = script.Eval(context.Background(), req.Source, script.Options{})
		return err
	}); err != nil {
		return err
	}
	s.n.steps.Add(res.Steps)
	s.n.programs.Add(1)
	var buf bytes.Buffer
	return c.time("script.encode", 1, true, func() error { return res.Encode(&buf) })
}

// fleetReplay mirrors the fleet handlers on a registry with a store on a
// RAM filesystem, the server's configuration.
type fleetReplay struct {
	reg          *fleet.Registry
	st           *fleet.Store
	ingestGates  gates
	summaryGates gates
}

func newFleetReplay(preload []byte, durable bool) (*fleetReplay, error) {
	f := &fleetReplay{reg: fleet.New(fleet.Config{}), ingestGates: newGates(true), summaryGates: newGates(false)}
	if durable {
		st, err := fleet.OpenStore(context.Background(), f.reg, fleet.StoreConfig{
			FS: newRAMFS(), SnapshotPath: "fleet/snapshot", WALDir: "fleet/wal",
		})
		if err != nil {
			return nil, err
		}
		f.st = st
	}
	if _, err := f.reg.IngestNDJSON(bytes.NewReader(preload), 0); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleetReplay) close() error {
	if f.st == nil {
		return nil
	}
	return f.st.Close()
}

func (f *fleetReplay) ingest(c call, body []byte, lines int) error {
	if err := f.ingestGates.pass(c, 0); err != nil {
		return err
	}
	return c.time("fleet.ingest", lines, true, func() error {
		_, err := f.reg.IngestNDJSON(bytes.NewReader(body), 0)
		return err
	})
}

// fleetAside measures an ingest stream twice more beside the server's
// path, each on its own registry holding the same devices: without the
// store, and through Upsert with the devices decoded beforehand. The
// differences split an ingest into WAL, decode and registry work. The
// passes run one after another so only one registry is alive at a time.
func fleetAside(c func(i int) call, preload []byte, chunks [][]byte, lines []int) error {
	plain, err := newFleetReplay(preload, false)
	if err != nil {
		return err
	}
	for i, body := range chunks {
		if err := c(i).time("fleet.ingest_nostore", lines[i], false, func() error {
			_, err := plain.reg.IngestNDJSON(bytes.NewReader(body), 0)
			return err
		}); err != nil {
			return err
		}
	}
	plain = nil
	up, err := newFleetReplay(preload, false)
	if err != nil {
		return err
	}
	for i, body := range chunks {
		var devs []*fleet.Device
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			d, err := fleet.ParseDevice(line)
			if err != nil {
				return err
			}
			devs = append(devs, d)
		}
		if err := c(i).time("fleet.upsert", lines[i], false, func() error {
			for _, d := range devs {
				if _, err := up.reg.Upsert(*d); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// queryName names a summary shape's query span.
func queryName(q fleet.Query) string {
	switch {
	case q.TopK > 0:
		return "fleet.query.top"
	case q.GroupBy != "":
		return "fleet.query.by_" + q.GroupBy
	}
	return "fleet.query.plain"
}

func (f *fleetReplay) summary(c call, q fleet.Query) error {
	if err := f.summaryGates.pass(c, 0); err != nil {
		return err
	}
	var doc report.FleetSummaryJSON
	if err := c.time(queryName(q), 1, true, func() (err error) { doc, err = f.reg.Query(q); return err }); err != nil {
		return err
	}
	var buf bytes.Buffer
	return c.time("fleet.summary_encode", 1, true, func() error { return report.Encode(&buf, doc) })
}

// clusterSummary mirrors a coordinator's summary: gather every member's
// partial (the local one directly, the rest over loopback RPC), fold,
// encode. The gather span's N is the partials' encoded size.
func clusterSummary(c call, coord *cluster.Cluster, g gates, q fleet.Query) error {
	if err := g.pass(c, 0); err != nil {
		return err
	}
	start := time.Now()
	partials, missing, err := coord.GatherPartials(context.Background(), q.TopK, q.GroupBy)
	end := time.Now()
	if err != nil {
		return err
	}
	if len(missing) > 0 {
		return fmt.Errorf("gather missed members %v", missing)
	}
	size := 0
	for _, p := range partials {
		b, err := json.Marshal(p)
		if err != nil {
			return err
		}
		size += len(b)
	}
	c.t.add(span{ID: c.t.newID(), Parent: c.parent, Req: c.req, Name: "cluster.gather",
		Start: int64(start.Sub(c.t.epoch)), End: int64(end.Sub(c.t.epoch)), N: size, Attr: c.parent != 0})
	var doc report.FleetSummaryJSON
	if err := c.time("cluster.fold", 1, true, func() (err error) { doc, err = cluster.Fold(q, partials); return err }); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := c.time("fleet.summary_encode", 1, true, func() error { return report.Encode(&buf, doc) }); err != nil {
		return err
	}
	return c.time("cluster.local_partial", 1, false, func() error {
		_, err := coord.LocalPartial(q.TopK, q.GroupBy)
		return err
	})
}

func clusterIngest(c call, coord *cluster.Cluster, g gates, body []byte, lines int) error {
	if err := g.pass(c, 0); err != nil {
		return err
	}
	return c.time("cluster.ingest", lines, true, func() error {
		_, err := coord.Ingest(context.Background(), bytes.NewReader(body), 0)
		return err
	})
}

// ---- off-path probes ----

// probeKinds are the layer groups every traced run reports. A workload
// whose requests do not reach a group replays a small seeded probe
// through it instead, so each traced run prints every per-layer metric;
// probe spans have no parent and never enter the self-time table.
var probeKinds = []string{"single", "batch", "script", "fleet", "cluster"}

const saltProbe = 0x70726f62

var probes = map[string]func(t *tracer, n *replayCounts, seed uint64) error{
	"single": func(t *tracer, n *replayCounts, seed uint64) error {
		f := newFootprintReplay(n)
		c := call{t: t, req: "probe"}
		var bodies [][]byte
		for _, s := range conform.GenerateCorpus(seed^saltProbe, 64) {
			body, err := scenario.Marshal(s)
			if err != nil {
				return err
			}
			bodies = append(bodies, body)
		}
		for pass := 0; pass < 2; pass++ { // misses, then hits
			for _, body := range bodies {
				if err := f.single(c, body); err != nil {
					return err
				}
			}
		}
		return nil
	},
	"batch": func(t *tracer, n *replayCounts, seed uint64) error {
		pool, err := newBatchPool(seed^saltProbe, 2000)
		if err != nil {
			return err
		}
		f := newFootprintReplay(n)
		for j := 0; j < 2; j++ {
			body, _ := pool.batch(seed^saltProbe, j, 512)
			if err := f.batch(call{t: t, req: "probe"}, body); err != nil {
				return err
			}
		}
		return nil
	},
	"script": func(t *tracer, n *replayCounts, seed uint64) error {
		s := scriptReplay{gates: newGates(true), n: n}
		for j := 0; j < 2; j++ {
			sw, err := newScriptSweep(seed^saltProbe, j, 512)
			if err != nil {
				return err
			}
			if err := s.run(call{t: t, req: "probe"}, sw.body); err != nil {
				return err
			}
		}
		return nil
	},
	"fleet": func(t *tracer, _ *replayCounts, seed uint64) error {
		gen, err := newDeviceGen(seed, saltFleet^saltProbe)
		if err != nil {
			return err
		}
		pre, err := gen.chunk(0, 1000)
		if err != nil {
			return err
		}
		f, err := newFleetReplay(pre, true)
		if err != nil {
			return err
		}
		c := call{t: t, req: "probe"}
		var chunks [][]byte
		for k := 0; k < 2; k++ {
			body, err := gen.chunk(1000+k*500, 500)
			if err != nil {
				f.close()
				return err
			}
			chunks = append(chunks, body)
			if err := f.ingest(c, body, 500); err != nil {
				f.close()
				return err
			}
		}
		for k := 0; k < 15; k++ {
			if err := f.summary(c, fleetQueries[k%len(fleetQueries)]); err != nil {
				f.close()
				return err
			}
		}
		if err := f.close(); err != nil {
			return err
		}
		return fleetAside(func(int) call { return c }, pre, chunks, []int{500, 500})
	},
	"cluster": func(t *tracer, _ *replayCounts, seed uint64) error {
		gen, err := newDeviceGen(seed, saltCluster^saltProbe)
		if err != nil {
			return err
		}
		ms, err := startCluster(clusterSize, nil)
		if err != nil {
			return err
		}
		defer stopAll(ms)
		pc := newConn(ms[0].url)
		err = preload(pc, gen, 1000, 500)
		pc.close()
		if err != nil {
			return err
		}
		coord := ms[0].srv.Cluster()
		c := call{t: t, req: "probe"}
		for k := 0; k < 6; k++ {
			if err := clusterSummary(c, coord, newGates(false), clusterQueries[k%len(clusterQueries)]); err != nil {
				return err
			}
		}
		for k := 0; k < 2; k++ {
			body, err := gen.chunk(1000+k*100, 100)
			if err != nil {
				return err
			}
			if err := clusterIngest(c, coord, newGates(true), body, 100); err != nil {
				return err
			}
		}
		return nil
	},
}

// ---- the workloads' traced kits ----

var kits = map[string]func(seed uint64, z sizes) (*traceKit, error){
	"assess-single": singleKit,
	"assess-batch":  batchKit,
	"fleet-rw":      func(seed uint64, z sizes) (*traceKit, error) { return rwKit(seed, z, false) },
	"cluster":       func(seed uint64, z sizes) (*traceKit, error) { return rwKit(seed, z, true) },
}

func singleKit(seed uint64, z sizes) (*traceKit, error) {
	plan, err := planSingle(seed, z.hotN, []float64{1}, time.Duration(z.replayMax)*time.Second, 1, 0)
	if err != nil {
		return nil, err
	}
	want := map[int]uint64{}
	return &traceKit{
		own: []string{"single"},
		start: func(wrap func(int) func(http.Handler) http.Handler) ([]*actd, error) {
			a, err := startActd(serverOpts{wrap: wrap(0)})
			if err != nil {
				return nil, err
			}
			if err := warmSingle(a, plan.bodies[:plan.hotN]); err != nil {
				a.stop()
				return nil, err
			}
			return []*actd{a}, nil
		},
		next: func(i int) (replayReq, error) {
			idx := int(plan.segs[0].idx[i])
			return replayReq{kind: "single", path: "/v1/footprint", body: plan.bodies[idx], j: idx}, nil
		},
		check: func(o *outcome, log []replayReq, ans []answer) error {
			for i, r := range log {
				h, ok := want[r.j]
				if !ok {
					d, err := directDoc(plan.specs[r.j])
					if err != nil {
						return err
					}
					h = hashOf(d)
					want[r.j] = h
				}
				bookAnswer(o, ans[i], ans[i].hash == h)
			}
			return nil
		},
		direct: func(t *tracer, n *replayCounts, log []replayReq, parents []int64, _ []*actd) error {
			f := newFootprintReplay(&replayCounts{})
			warm := call{t: newTracer(), req: "warm"}
			for _, b := range plan.bodies[:plan.hotN] {
				if err := f.single(warm, b); err != nil {
					return err
				}
			}
			f.n = n
			for i, r := range log {
				if err := f.single(call{t: t, req: reqID(i), parent: parents[i]}, r.body); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// bookAnswer counts one replayed answer: ok is the oracle's verdict on a
// 200 answer.
func bookAnswer(o *outcome, a answer, ok bool) {
	good := a.err == nil && a.status == http.StatusOK
	if good && !ok {
		o.wrong++
	}
	o.count(good && ok)
}

func batchKit(seed uint64, z sizes) (*traceKit, error) {
	pool, err := newBatchPool(seed, z.poolN)
	if err != nil {
		return nil, err
	}
	warmScript, err := newScriptSweep(seed, warmBatchBase, z.batchN)
	if err != nil {
		return nil, err
	}
	docs := map[int][]byte{}
	return &traceKit{
		own: []string{"batch", "script"},
		start: func(wrap func(int) func(http.Handler) http.Handler) ([]*actd, error) {
			a, err := startActd(serverOpts{wrap: wrap(0)})
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
			return []*actd{a}, nil
		},
		next: func(i int) (replayReq, error) {
			if i%2 == 0 {
				body, _ := pool.batch(seed, i/2, z.batchN)
				return replayReq{kind: "batch", path: "/v1/footprint", body: body, j: i / 2}, nil
			}
			sw, err := newScriptSweep(seed, i/2, z.batchN)
			if err != nil {
				return replayReq{}, err
			}
			return replayReq{kind: "script", path: "/v1/script", body: sw.body, j: i / 2}, nil
		},
		check: func(o *outcome, log []replayReq, ans []answer) error {
			for i, r := range log {
				if r.kind == "batch" {
					_, idx := pool.batch(seed, r.j, z.batchN)
					elems := make([][]byte, len(idx))
					for k, pi := range idx {
						if docs[pi] == nil {
							d, err := directDoc(pool.specs[pi])
							if err != nil {
								return err
							}
							docs[pi] = d
						}
						elems[k] = docs[pi]
					}
					bookAnswer(o, ans[i], ans[i].hash == hashOf(batchBody(elems)))
					continue
				}
				sw, err := newScriptSweep(seed, r.j, z.batchN)
				if err != nil {
					return err
				}
				want, err := sweepTotal(sw.specs)
				if err != nil {
					return err
				}
				got, _, err := scriptOutput(ans[i].body)
				bookAnswer(o, ans[i], err == nil && got == want)
			}
			return nil
		},
		direct: func(t *tracer, n *replayCounts, log []replayReq, parents []int64, _ []*actd) error {
			f := newFootprintReplay(&replayCounts{})
			warm := call{t: newTracer(), req: "warm"}
			for k := 0; k < z.warmBatches; k++ {
				body, _ := pool.batch(seed, warmBatchBase+k, z.batchN)
				if err := f.batch(warm, body); err != nil {
					return err
				}
			}
			f.n = n
			s := scriptReplay{gates: newGates(true), n: n}
			for i, r := range log {
				c := call{t: t, req: reqID(i), parent: parents[i]}
				var err error
				if r.kind == "batch" {
					err = f.batch(c, r.body)
				} else {
					err = s.run(c, r.body)
				}
				if err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// rwKit is the traced kit of fleet-rw and of cluster: ingest chunks
// alternate with summary reads, and because the replay is sequential
// every summary is checked byte for byte against an oracle registry
// advanced in lockstep.
func rwKit(seed uint64, z sizes, clustered bool) (*traceKit, error) {
	salt, chunk, load, shapes, queries := uint64(saltFleet), z.chunk, z.preload, fleetShapes, fleetQueries
	if clustered {
		salt, chunk, load, shapes, queries = saltCluster, z.clusterChunk, z.clusterLoad, clusterShapes, clusterQueries
	}
	gen, err := newDeviceGen(seed, salt)
	if err != nil {
		return nil, err
	}
	pre, err := gen.chunk(0, load)
	if err != nil {
		return nil, err
	}
	start := func(wrap func(int) func(http.Handler) http.Handler) ([]*actd, error) {
		var ms []*actd
		if clustered {
			if ms, err = startCluster(clusterSize, wrap); err != nil {
				return nil, err
			}
		} else {
			a, err := startActd(serverOpts{durable: true, wrap: wrap(0)})
			if err != nil {
				return nil, err
			}
			ms = []*actd{a}
		}
		c := newConn(ms[0].url)
		defer c.close()
		if err := preload(c, gen, load, preloadChunk); err != nil {
			stopAll(ms)
			return nil, err
		}
		return ms, nil
	}
	kit := &traceKit{
		start: start,
		next: func(i int) (replayReq, error) {
			if i%2 == 1 {
				s := (i / 2) % len(shapes)
				return replayReq{kind: "summary", path: "/v1/fleet/summary" + shapes[s], j: s}, nil
			}
			first := load + (i/2)*chunk
			body, err := gen.chunk(first, chunk)
			return replayReq{kind: "ingest", path: "/v1/fleet/devices", body: body, j: first, lines: chunk}, err
		},
		check: func(o *outcome, log []replayReq, ans []answer) error {
			oracle := fleet.New(fleet.Config{})
			if _, err := oracle.IngestNDJSON(bytes.NewReader(pre), 0); err != nil {
				return err
			}
			for i, r := range log {
				if r.kind == "ingest" {
					want, err := oracle.IngestNDJSON(bytes.NewReader(r.body), 0)
					if err != nil {
						return err
					}
					var got fleet.IngestResult
					bookAnswer(o, ans[i], json.Unmarshal(ans[i].body, &got) == nil && got == want)
					continue
				}
				doc, err := oracle.Query(queries[r.j])
				if err != nil {
					return err
				}
				var want bytes.Buffer
				if err := report.Encode(&want, doc); err != nil {
					return err
				}
				bookAnswer(o, ans[i], ans[i].hash == hashOf(want.Bytes()))
			}
			return nil
		},
	}
	if !clustered {
		kit.own = []string{"fleet"}
		kit.direct = func(t *tracer, _ *replayCounts, log []replayReq, parents []int64, _ []*actd) error {
			f, err := newFleetReplay(pre, true)
			if err != nil {
				return err
			}
			var chunks [][]byte
			var lines, reqs []int
			for i, r := range log {
				c := call{t: t, req: reqID(i), parent: parents[i]}
				if r.kind == "ingest" {
					err = f.ingest(c, r.body, r.lines)
					chunks, lines, reqs = append(chunks, r.body), append(lines, r.lines), append(reqs, i)
				} else {
					err = f.summary(c, queries[r.j])
				}
				if err != nil {
					f.close()
					return err
				}
			}
			if err := f.close(); err != nil {
				return err
			}
			return fleetAside(func(k int) call {
				return call{t: t, req: reqID(reqs[k]), parent: parents[reqs[k]]}
			}, pre, chunks, lines)
		}
		return kit, nil
	}
	kit.own = []string{"cluster"}
	kit.live = true
	kit.direct = func(t *tracer, _ *replayCounts, log []replayReq, parents []int64, traced []*actd) error {
		// Summaries gather from the traced members, which hold the same
		// devices the replayed reads saw by the end; ingests go to a
		// fresh cluster preloaded like the traced one.
		fresh, err := start(func(int) func(http.Handler) http.Handler { return nil })
		if err != nil {
			return err
		}
		defer stopAll(fresh)
		coord, ingestCoord := traced[0].srv.Cluster(), fresh[0].srv.Cluster()
		sg, ig := newGates(false), newGates(true)
		for i, r := range log {
			c := call{t: t, req: reqID(i), parent: parents[i]}
			if r.kind == "ingest" {
				err = clusterIngest(c, ingestCoord, ig, r.body, r.lines)
			} else {
				err = clusterSummary(c, coord, sg, queries[r.j])
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	return kit, nil
}
