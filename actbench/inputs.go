package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"act/internal/conform"
	"act/internal/fleet"
	"act/internal/scenario"
)

// Every input the benchmark sends is a pure function of the seed: each
// draw comes from a SplitMix64 stream keyed by (seed, purpose, index), so
// a request's bytes do not depend on how many other requests were
// generated before it or on which connection sends it.

// rng is a SplitMix64 stream.
type rng struct{ s uint64 }

// Stream salts: one independent family of streams per input kind.
const (
	saltSingle  = 0x73696e67 // footprint request mix
	saltArrival = 0x61727276 // open-loop arrival gaps
	saltBatch   = 0x62617463 // batch composition
	saltScript  = 0x73637270 // script sweep parameters
	saltFleet   = 0x666c6574 // fleet-rw devices
	saltCluster = 0x636c7374 // cluster devices
	saltBoM     = 0x626f6d73 // large BoM pool of the device generators
)

func stream(seed, salt uint64, i int) *rng {
	z := seed ^ salt*0x9e3779b97f4a7c15
	z += 0xbf58476d1ce4e5b9 * uint64(i+1)
	r := &rng{s: z}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangef draws from [lo, hi] rounded to 3 decimals, so the value survives
// a text round trip unchanged.
func (r *rng) rangef(lo, hi float64) float64 {
	return math.Round((lo+r.float()*(hi-lo))*1000) / 1000
}

// compactWire is a scenario's version-1 wire form without indentation.
func compactWire(s *scenario.Spec) ([]byte, error) {
	data, err := scenario.Marshal(s)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ---- assess-single ----

// hotShare is the share of single-object requests drawn from the hot set.
const hotShare = 0.9

// singlePlan is the assess-single request stream: a hot set that the
// setup warms into the cache, then the ladder's rungs as Poisson arrival
// schedules, then the capacity phase's closed-loop stream. Every request
// picks a hot scenario or the next fresh one. The ladder is walked
// cycles times, one segment per rung per cycle, so each rung's samples
// spread over the whole phase and a few bad seconds on the host do not
// land on one rung alone. Scenario i of the plan is
// conform.GenerateCorpus(seed, ...)[i]; the first hotN are hot and every
// later one is used exactly once.
type singlePlan struct {
	hotN     int
	specs    []*scenario.Spec
	bodies   [][]byte
	segs     []segPlan
	capacity []int32 // scenario index of each capacity-phase request
}

type segPlan struct {
	rung int
	rate float64
	idx  []int32         // scenario index of each request
	due  []time.Duration // send time of each request from the segment start
}

func planSingle(seed uint64, hotN int, rates []float64, segDur time.Duration, cycles, capN int) (*singlePlan, error) {
	p := &singlePlan{hotN: hotN}
	next, req := hotN, 0
	pick := func() int32 {
		r := stream(seed, saltSingle, req)
		req++
		if r.float() < hotShare {
			return int32(r.intn(hotN))
		}
		next++
		return int32(next - 1)
	}
	for c := 0; c < cycles; c++ {
		for ri, rate := range rates {
			n := int(math.Round(rate * segDur.Seconds()))
			sp := segPlan{rung: ri, rate: rate, idx: make([]int32, n), due: make([]time.Duration, n)}
			arr := stream(seed, saltArrival, len(p.segs))
			t := 0.0
			for k := 0; k < n; k++ {
				sp.due[k] = time.Duration(t * 1e9)
				t += -math.Log(1-arr.float()) / rate
				sp.idx[k] = pick()
			}
			p.segs = append(p.segs, sp)
		}
	}
	p.capacity = make([]int32, capN)
	for k := range p.capacity {
		p.capacity[k] = pick()
	}
	p.specs = conform.GenerateCorpus(seed, next)
	p.bodies = make([][]byte, next)
	for i, s := range p.specs {
		b, err := scenario.Marshal(s)
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		p.bodies[i] = b
	}
	return p, nil
}

// ---- assess-batch ----

// batchDupShare is the chance that a batch element repeats an earlier
// element of the same batch.
const batchDupShare = 0.05

// batchPool is the assess-batch scenario pool, much larger than the
// server's cache, with each scenario's compact wire form.
type batchPool struct {
	specs []*scenario.Spec
	wire  [][]byte
}

func newBatchPool(seed uint64, n int) (*batchPool, error) {
	p := &batchPool{specs: conform.GenerateCorpus(seed, n), wire: make([][]byte, n)}
	for i, s := range p.specs {
		w, err := compactWire(s)
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		p.wire[i] = w
	}
	return p, nil
}

// batch returns batch j: its body and the pool index of every element.
func (p *batchPool) batch(seed uint64, j, size int) ([]byte, []int) {
	r := stream(seed, saltBatch, j)
	idx := make([]int, size)
	n := 2
	for k := range idx {
		if k > 0 && r.float() < batchDupShare {
			idx[k] = idx[r.intn(k)]
		} else {
			idx[k] = r.intn(len(p.specs))
		}
		n += len(p.wire[idx[k]]) + 1
	}
	body := make([]byte, 0, n)
	body = append(body, '[')
	for k, i := range idx {
		if k > 0 {
			body = append(body, ',')
		}
		body = append(body, p.wire[i]...)
	}
	return append(body, ']'), idx
}

// ---- scripts ----

var (
	scriptNodes = []string{"28nm", "20nm", "14nm", "10nm", "7nm", "5nm", "3nm"}
	scriptDRAM  = []string{"lpddr4", "10nm-ddr4", "20nm-lpddr3", "30nm-ddr3"}
	scriptCapGB = []float64{2, 4, 8, 16, 32, 64}
)

// scriptSweep is one /v1/script program that builds an n-point design
// sweep in-language, prices it with one footprint() host call and returns
// the sum of total_g, plus the same sweep built natively for the oracle.
type scriptSweep struct {
	body  []byte // the POST /v1/script request body
	specs []*scenario.Spec
}

func newScriptSweep(seed uint64, j, n int) (*scriptSweep, error) {
	r := stream(seed, saltScript, j)
	nodes := make([]string, 3+r.intn(3))
	for i := range nodes {
		nodes[i] = scriptNodes[r.intn(len(scriptNodes))]
	}
	area0 := r.rangef(20, 200)
	step := r.rangef(0.5, 3)
	dram := scriptDRAM[r.intn(len(scriptDRAM))]
	capGB := scriptCapGB[r.intn(len(scriptCapGB))]
	power := r.rangef(1, 20)
	hours := r.rangef(100, 20000)
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	quoted := make([]string, len(nodes))
	for i, nd := range nodes {
		quoted[i] = strconv.Quote(nd)
	}
	src := fmt.Sprintf(`let nodes = [%s]
let specs = []
for i in range(%d) {
  append(specs, {
    "name": format("sweep-%%d", i),
    "logic": [{"name": "soc", "area_mm2": %s + (i %% 64) * %s, "node": nodes[i %% len(nodes)]}],
    "dram": [{"name": "ram", "technology": %q, "capacity_gb": %s}],
    "usage": {"power_w": %s, "app_hours": %s}
  })
}
let docs = footprint(specs)
let total = 0
for d in docs {
  total = total + d["total_g"]
}
total
`, strings.Join(quoted, ", "), n, num(area0), num(step), dram, num(capGB), num(power), num(hours))
	body, err := json.Marshal(map[string]string{"source": src})
	if err != nil {
		return nil, err
	}
	specs := make([]*scenario.Spec, n)
	for i := range specs {
		// float64() around the product keeps the compiler from fusing the
		// multiply-add, matching the interpreter's separate roundings.
		area := area0 + float64(float64(i%64)*step)
		specs[i] = &scenario.Spec{
			Name:  fmt.Sprintf("sweep-%d", i),
			Logic: []scenario.LogicSpec{{Name: "soc", AreaMM2: area, Node: nodes[i%len(nodes)]}},
			DRAM:  []scenario.DRAMSpec{{Name: "ram", Technology: dram, CapacityGB: capGB}},
			Usage: scenario.UsageSpec{PowerW: power, AppHours: hours},
		}
	}
	return &scriptSweep{body: body, specs: specs}, nil
}

// ---- fleet devices ----

const (
	smallBoMPool  = 256  // the shared pool most devices draw from
	largeBoMPool  = 4096 // the rest
	smallBoMShare = 0.9
	replaceShare  = 0.1 // lines that re-send an earlier id
)

var (
	fleetRegions  = []string{"world", "india", "australia", "taiwan", "singapore", "united-states", "europe", "brazil", "iceland"}
	fleetDeployed = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
)

// deviceGen renders NDJSON device lines. Line k is a pure function of
// (seed, salt, k): mostly a new id, sometimes an earlier line's id again
// (a replacement), with a BoM drawn mostly from a small shared pool.
type deviceGen struct {
	seed, salt   uint64
	small, large [][]byte
}

func newDeviceGen(seed, salt uint64) (*deviceGen, error) {
	g := &deviceGen{seed: seed, salt: salt}
	wires := func(specs []*scenario.Spec) ([][]byte, error) {
		out := make([][]byte, len(specs))
		for i, s := range specs {
			w, err := compactWire(s)
			if err != nil {
				return nil, err
			}
			out[i] = w
		}
		return out, nil
	}
	var err error
	if g.small, err = wires(conform.GenerateCorpus(seed^salt, smallBoMPool)); err != nil {
		return nil, err
	}
	if g.large, err = wires(conform.GenerateCorpus(seed^salt^saltBoM, largeBoMPool)); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *deviceGen) line(k int) ([]byte, error) {
	r := stream(g.seed, g.salt, k)
	id := k
	if k > 0 && r.float() < replaceShare {
		id = r.intn(k)
	}
	bom := g.large[r.intn(largeBoMPool)]
	if r.float() < smallBoMShare {
		bom = g.small[r.intn(smallBoMPool)]
	}
	u := r.rangef(0.05, 1)
	ds := fleet.DeviceSpec{
		ID:          fmt.Sprintf("dev-%07d", id),
		Region:      fleetRegions[r.intn(len(fleetRegions))],
		Deployed:    fleetDeployed.Format(time.RFC3339),
		Utilization: &u,
		Scenario:    bom,
	}
	if r.float() < 2.0/3 {
		ds.Retired = fleetDeployed.Add(time.Duration(r.rangef(0.2, 6) * 365.25 * 24 * float64(time.Hour))).Format(time.RFC3339)
	}
	b, err := json.Marshal(ds)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// chunk renders lines [start, start+n) as one NDJSON body.
func (g *deviceGen) chunk(start, n int) ([]byte, error) {
	var buf []byte
	for k := start; k < start+n; k++ {
		l, err := g.line(k)
		if err != nil {
			return nil, err
		}
		buf = append(buf, l...)
	}
	return buf, nil
}

// summaryShapes are the fleet summary queries each workload rotates
// through, as URL query strings.
var (
	fleetShapes   = []string{"", "?by=region", "?top=10"}
	clusterShapes = []string{"", "?by=region"}
)
