// Package fleet is ACT's fleet-wide carbon accounting layer: a sharded,
// concurrency-safe in-memory device registry with incremental aggregation.
// The paper's equations price a single device; the quantity its motivating
// data (and the companion fleet study, "Chasing Carbon") cares about is
// the footprint of millions of devices amortizing embodied carbon over
// staggered lifetimes while operational carbon tracks regional grid
// intensity. This package keeps that quantity always-available:
//
//   - Devices are upserted with an id, a deployment region, deploy/retire
//     dates, a utilization fraction, and a scenario BoM. Identical BoMs
//     (dedup-keyed by scenario.CanonicalKey) share one embodied-carbon
//     evaluation.
//   - Every upsert/remove updates its shard's running totals: the
//     amortized embodied share follows Eq. 1's T/LT with T the device's
//     deployed window capped at LT; the operational share prices the
//     device's energy at its region's grid intensity (Table 6, or a
//     time-resolved grid/intensity trace).
//   - A summary is therefore O(shards), not O(devices); full recomputation
//     fans out through parsweep only when the model tables change.
//
// The aggregation invariant: each shard's totals equal the fold of the
// contributions applied to it, in apply order. Snapshots persist the
// totals verbatim (not recomputed), which is what makes a snapshot →
// restart → restore cycle reproduce the summary byte-identically.
package fleet

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"act/internal/acterr"
	"act/internal/core"
	"act/internal/fab"
	"act/internal/faultinject"
	"act/internal/intensity"
	"act/internal/scenario"
	"act/internal/units"
)

// Device is one validated fleet member: the parsed form of a device line
// in the NDJSON wire format (see ParseDevice).
type Device struct {
	// ID is the unique fleet-wide device identifier; a second upsert with
	// the same ID replaces the first.
	ID string
	// Region names the deployment grid (a Table 6 region by default; the
	// registry's IntensityResolver interprets it).
	Region string
	// Deployed and Retired bound the device's in-service window. The
	// window length is T in Eq. 1's T/LT amortization, capped at LT.
	Deployed, Retired time.Time
	// Utilization is the fraction of the deployed window the device draws
	// its scenario power, in [0, 1].
	Utilization float64
	// Spec is the device's bill of materials and power draw. Only the BoM
	// and usage.power_w are consulted: app-hours come from the deployed
	// window and utilization, and the operational intensity from Region.
	Spec *scenario.Spec
}

// Validate checks the parsed device. Failures are typed
// acterr.InvalidSpecError values carrying the offending field.
func (d *Device) Validate() error {
	if d.ID == "" {
		return acterr.Invalid("id", "missing device id")
	}
	if strings.TrimSpace(d.Region) == "" {
		return acterr.Invalid("region", "missing region")
	}
	if d.Deployed.IsZero() {
		return acterr.Invalid("deployed", "missing deploy date")
	}
	if !d.Retired.After(d.Deployed) {
		return acterr.Invalid("retired", "retire date %s not after deploy date %s",
			d.Retired.Format(dateFormat), d.Deployed.Format(dateFormat))
	}
	if d.Utilization < 0 || d.Utilization > 1 {
		return acterr.Invalid("utilization", "utilization %v outside [0, 1]", d.Utilization)
	}
	if d.Spec == nil {
		return acterr.Invalid("scenario", "missing scenario")
	}
	return nil
}

// activeYears is the deployed window in years.
func (d *Device) activeYears() float64 {
	return d.Retired.Sub(d.Deployed).Hours() / (365.25 * 24)
}

// contribution is what one device adds to its shard's running totals.
// It is computed once at upsert (or recompute) and carried verbatim
// through the write-ahead log and snapshots, so replay and restore never
// re-evaluate the model.
type contribution struct {
	// embodiedG is the full embodied footprint of the BoM (ECF).
	embodiedG float64
	// embodiedShareG is ECF x min(active, LT)/LT, Eq. 1's amortized share.
	embodiedShareG float64
	// operationalG prices power x active hours x utilization at the
	// region's grid intensity.
	operationalG float64
}

func (c contribution) totalG() float64 { return c.embodiedShareG + c.operationalG }

// record is a registered device plus everything derived from it.
type record struct {
	dev Device
	// specJSON is the canonical scenario.Marshal form, the bytes snapshots
	// and the write-ahead log carry.
	specJSON []byte
	// key is scenario.CanonicalKey of the BoM — the embodied-evaluation
	// dedup key.
	key string
	// node is the canonical primary process node (the first logic die's,
	// snapped), the group-by-node dimension; "" for logic-less devices.
	node string
	// class is the canonical device-class name (the scenario's device
	// name), the group-by-class dimension the telemetry exporter keys its
	// per-class series on. Derived from the spec, so it is never persisted:
	// restore and replay rebuild it from the scenario bytes.
	class   string
	contrib contribution
}

// aggregate is one shard's running totals.
type aggregate struct {
	devices        int64
	embodiedG      float64
	embodiedShareG float64
	operationalG   float64
}

func (a *aggregate) add(c contribution, sign float64) {
	a.embodiedG += sign * c.embodiedG
	a.embodiedShareG += sign * c.embodiedShareG
	a.operationalG += sign * c.operationalG
}

// groupAgg is a running total for one group-by key.
type groupAgg struct {
	devices        int64
	embodiedShareG float64
	operationalG   float64
}

// shard is one lock domain of the registry.
type shard struct {
	mu       sync.Mutex
	recs     map[string]*record
	agg      aggregate
	byRegion map[string]*groupAgg
	byNode   map[string]*groupAgg
	byClass  map[string]*groupAgg
}

func newShard() *shard {
	return &shard{
		recs:     map[string]*record{},
		byRegion: map[string]*groupAgg{},
		byNode:   map[string]*groupAgg{},
		byClass:  map[string]*groupAgg{},
	}
}

// applyLocked folds rec into (sign=+1) or out of (sign=-1) the shard's
// totals. The caller holds sh.mu.
func (sh *shard) applyLocked(rec *record, sign float64) {
	sh.agg.add(rec.contrib, sign)
	sh.agg.devices += int64(sign)
	applyGroup(sh.byRegion, canonRegion(rec.dev.Region), rec.contrib, sign)
	applyGroup(sh.byNode, rec.node, rec.contrib, sign)
	applyGroup(sh.byClass, rec.class, rec.contrib, sign)
}

func applyGroup(dim map[string]*groupAgg, key string, c contribution, sign float64) {
	g, ok := dim[key]
	if !ok {
		g = &groupAgg{}
		dim[key] = g
	}
	g.devices += int64(sign)
	g.embodiedShareG += sign * c.embodiedShareG
	g.operationalG += sign * c.operationalG
	if g.devices == 0 {
		delete(dim, key)
	}
}

// IntensityResolver maps a deployment region to its operational grid
// intensity (CIuse). Unknown regions return a typed validation error.
type IntensityResolver func(region string) (units.CarbonIntensity, error)

// StaticRegions resolves regions against the paper's Table 6 averages —
// the default resolver.
func StaticRegions() IntensityResolver {
	return func(region string) (units.CarbonIntensity, error) {
		info, err := intensity.ByRegion(intensity.Region(canonRegion(region)))
		if err != nil {
			return 0, acterr.Invalid("region", "unknown region %q (want a Table 6 name)", region)
		}
		return info.Intensity, nil
	}
}

// TraceResolver resolves the listed regions to the mean intensity of their
// trace — the time-resolved OPCF path, fed by internal/grid dispatch
// traces or replayed feeds. The mean is taken over one day (or the trace's
// measured bound, if shorter), computed once per region and cached; other
// regions fall through to fallback.
func TraceResolver(traces map[string]intensity.Trace, fallback IntensityResolver) IntensityResolver {
	var mu sync.Mutex
	cache := map[string]units.CarbonIntensity{}
	return func(region string) (units.CarbonIntensity, error) {
		key := canonRegion(region)
		tr, ok := traces[key]
		if !ok {
			if fallback == nil {
				return 0, acterr.Invalid("region", "unknown region %q", region)
			}
			return fallback(region)
		}
		mu.Lock()
		defer mu.Unlock()
		if ci, ok := cache[key]; ok {
			return ci, nil
		}
		window := 24 * time.Hour
		if b, ok := tr.(intensity.Bounded); ok && b.Bound() < window {
			window = b.Bound()
		}
		ci, err := intensity.Average(tr, 0, window, time.Hour)
		if err != nil {
			return 0, fmt.Errorf("fleet: region %q trace: %w", region, err)
		}
		cache[key] = ci
		return ci, nil
	}
}

// Config tunes a Registry. Zero fields take the documented defaults.
type Config struct {
	// Shards is the lock-domain count (default 64). A summary is O(Shards).
	Shards int
	// Resolver maps regions to operational intensity (default
	// StaticRegions).
	Resolver IntensityResolver
	// Workers bounds the parsweep fan-out of Recompute and TopK queries
	// (default GOMAXPROCS).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 64
	}
	if c.Resolver == nil {
		c.Resolver = StaticRegions()
	}
	return c
}

// Registry is the sharded fleet store. All methods are safe for concurrent
// use.
type Registry struct {
	// mu is the structural lock: read-held by per-device operations and
	// queries (which then take shard locks), write-held by whole-registry
	// operations (snapshot, restore, recompute, log attach/rotate).
	mu     sync.RWMutex
	cfg    Config
	shards []*shard
	evals  evalCache
	count  atomic.Int64
	// gen counts structural mutations (upsert, remove, restore, recompute
	// install). A staged recompute remembers the generation it priced and
	// restages at commit if mutations landed in between.
	gen atomic.Uint64
	log WALAppender // nil until AttachWAL
}

// New builds an empty registry.
func New(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	r := &Registry{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range r.shards {
		r.shards[i] = newShard()
	}
	r.evals.entries = map[string]*evalEntry{}
	return r
}

// Len returns the registered device count.
func (r *Registry) Len() int { return int(r.count.Load()) }

// shardFor picks the shard owning an id.
func (r *Registry) shardFor(id string) *shard {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return r.shards[h.Sum64()%uint64(len(r.shards))]
}

// Upsert registers dev, replacing any device with the same ID, and folds
// its contribution into the owning shard's running totals. The embodied
// evaluation is shared across identical BoMs. Validation failures are
// typed; a write-ahead-log failure aborts the upsert with the registry
// unchanged.
func (r *Registry) Upsert(dev Device) (replaced bool, err error) {
	rec, err := r.evaluate(&dev)
	if err != nil {
		return false, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.apply(rec, true)
}

// evaluate derives a full record from a validated device: canonical spec
// bytes, dedup key, primary node, and the contribution priced under the
// registry's resolver.
func (r *Registry) evaluate(dev *Device) (*record, error) {
	if err := dev.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	specJSON, err := scenario.Marshal(dev.Spec)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", acterr.Prefix("scenario", err))
	}
	node, err := primaryNode(dev.Spec)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", acterr.Prefix("scenario", err))
	}
	key := dev.Spec.CanonicalKey()
	embodiedG, err := r.evals.embodied(key, dev.Spec)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", acterr.Prefix("scenario", err))
	}
	ci, err := r.cfg.Resolver(dev.Region)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return &record{
		dev:      *dev,
		specJSON: specJSON,
		key:      key,
		node:     node,
		class:    canonClass(dev.Spec.Name),
		contrib:  contributionOf(dev, embodiedG, ci),
	}, nil
}

// contributionOf prices a device: Eq. 1's amortized embodied share plus
// the operational emissions of its deployed window.
func contributionOf(dev *Device, embodiedG float64, ci units.CarbonIntensity) contribution {
	lt := dev.Spec.Lifetime()
	active := dev.activeYears()
	amort := active / lt
	if amort > 1 {
		amort = 1
	}
	activeHours := dev.Retired.Sub(dev.Deployed).Hours()
	energyKWh := dev.Spec.Usage.PowerW * activeHours / 1000
	opG := ci.Emitted(units.KilowattHours(energyKWh)).Grams() * dev.Utilization
	return contribution{
		embodiedG:      embodiedG,
		embodiedShareG: embodiedG * amort,
		operationalG:   opG,
	}
}

// apply commits a fully evaluated record: chaos seam, write-ahead log,
// then the in-memory mutation (which cannot fail). The caller read-holds
// r.mu.
func (r *Registry) apply(rec *record, logIt bool) (replaced bool, err error) {
	sh := r.shardFor(rec.dev.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := faultinject.VisitNoCtx(faultinject.SiteFleetShard); err != nil {
		return false, fmt.Errorf("fleet: shard apply: %w", err)
	}
	if logIt && r.log != nil {
		if err := r.log.Append(encodeUpsert(rec)); err != nil {
			return false, fmt.Errorf("fleet: write-ahead log: %w", err)
		}
	}
	old, existed := sh.recs[rec.dev.ID]
	if existed {
		sh.applyLocked(old, -1)
	} else {
		r.count.Add(1)
	}
	r.gen.Add(1)
	sh.recs[rec.dev.ID] = rec
	sh.applyLocked(rec, +1)
	r.evals.retain(rec.key, rec.contrib.embodiedG)
	if existed {
		r.evals.release(old.key)
	}
	return existed, nil
}

// Remove unregisters a device, subtracting its contribution from the
// shard totals. It reports whether the id was present.
func (r *Registry) Remove(id string) (found bool, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.remove(id, true)
}

func (r *Registry) remove(id string, logIt bool) (bool, error) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.recs[id]
	if !ok {
		return false, nil
	}
	if err := faultinject.VisitNoCtx(faultinject.SiteFleetShard); err != nil {
		return false, fmt.Errorf("fleet: shard apply: %w", err)
	}
	if logIt && r.log != nil {
		if err := r.log.Append(encodeRemove(id)); err != nil {
			return false, fmt.Errorf("fleet: write-ahead log: %w", err)
		}
	}
	delete(sh.recs, id)
	sh.applyLocked(rec, -1)
	r.count.Add(-1)
	r.gen.Add(1)
	r.evals.release(rec.key)
	return true, nil
}

// primaryNode resolves the group-by-node dimension: the first logic die's
// process node, snapped to its characterized entry the way the fab layer
// does ("16nm" groups as "14nm"). Devices without logic group under "".
func primaryNode(spec *scenario.Spec) (string, error) {
	if len(spec.Logic) == 0 {
		return "", nil
	}
	params, err := fab.ParseNode(spec.Logic[0].Node)
	if err != nil {
		return "", acterr.Prefix("logic[0].node", err)
	}
	return string(params.Node), nil
}

// canonRegion normalizes a region name the way the intensity tables do.
func canonRegion(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

// canonClass normalizes a device-class name (the scenario's device name)
// the same way, so "Mobile-Phone" and "mobile-phone " group together.
func canonClass(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

// evalCache shares one embodied-carbon evaluation across every device
// with the same canonical BoM, refcounted so DistinctBoMs stays exact as
// devices come and go.
type evalCache struct {
	mu      sync.Mutex
	entries map[string]*evalEntry
}

type evalEntry struct {
	embodiedG float64
	refs      int
}

// embodied returns the shared evaluation for key, computing it on first
// sight. The model evaluation runs under the cache lock: misses are as
// rare as distinct BoMs, and the evaluation is microseconds of pure table
// math. Nothing is inserted here — retain does, once the upsert commits —
// so an upsert that later fails leaves no zero-ref residue behind.
func (c *evalCache) embodied(key string, spec *scenario.Spec) (float64, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return e.embodiedG, nil
	}
	c.mu.Unlock()
	return embodiedOf(spec)
}

// retain bumps the refcount for key (inserting if the entry was evicted
// between evaluation and apply).
func (c *evalCache) retain(key string, embodiedG float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &evalEntry{embodiedG: embodiedG}
		c.entries[key] = e
	}
	e.refs++
}

// release drops one reference; the entry is evicted at zero.
func (c *evalCache) release(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.refs--
		if e.refs <= 0 {
			delete(c.entries, key)
		}
	}
}

// len returns the distinct-BoM count.
func (c *evalCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// reset replaces the cache contents wholesale (restore/recompute).
func (c *evalCache) reset(entries map[string]*evalEntry) {
	c.mu.Lock()
	c.entries = entries
	c.mu.Unlock()
}

// embodiedOf evaluates the BoM's full embodied footprint (ECF).
func embodiedOf(spec *scenario.Spec) (float64, error) {
	d, err := spec.Device()
	if err != nil {
		return 0, err
	}
	br, err := core.Embodied(d)
	if err != nil {
		return 0, err
	}
	return br.Total().Grams(), nil
}

// dateFormat is the wire date form (RFC 3339 is also accepted on input).
const dateFormat = "2006-01-02"
