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
//     (dedup-keyed by scenario.CanonicalKey) share one BoM table entry:
//     one parsed spec, one embodied-carbon evaluation, one copy of the
//     persisted scenario bytes.
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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"act/internal/acterr"
	"act/internal/colbatch"
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

// record is one registered device: only what differs device to device.
// Everything derived from the BoM — the spec, its persisted bytes, the
// dedup key, node, class and embodied footprint — lives once in the BoM
// table entry the record points at, shared by every device deployed with
// that BoM. Records are immutable once applied: a replacement or a
// recompute installs a new record, so readers that found one under a
// shard lock may keep reading it after the lock is released.
type record struct {
	id     string
	region string
	// deployed and retired bound the in-service window (UTC).
	deployed, retired time.Time
	utilization       float64
	contrib           contribution
	bom               *bomEntry
}

// price computes the record's contribution: Eq. 1's amortized embodied
// share of its BoM plus the operational emissions of its deployed window
// at intensity ci.
func (rec *record) price(embodiedG float64, ci units.CarbonIntensity) contribution {
	spec := rec.bom.spec
	activeHours := rec.retired.Sub(rec.deployed).Hours()
	amort := activeHours / (365.25 * 24) / spec.Lifetime()
	if amort > 1 {
		amort = 1
	}
	energyKWh := spec.Usage.PowerW * activeHours / 1000
	opG := ci.Emitted(units.KilowattHours(energyKWh)).Grams() * rec.utilization
	return contribution{
		embodiedG:      embodiedG,
		embodiedShareG: embodiedG * amort,
		operationalG:   opG,
	}
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
	applyGroup(sh.byRegion, canonRegion(rec.region), rec.contrib, sign)
	applyGroup(sh.byNode, rec.bom.node, rec.contrib, sign)
	applyGroup(sh.byClass, rec.bom.class, rec.contrib, sign)
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

// MaxShards bounds a plausible shard count. New refuses a larger
// Config.Shards, Restore a snapshot that claims more, and the cluster fold
// a partial that does, before sizing anything by the claim.
const MaxShards = 1 << 16

// Config tunes a Registry. Zero fields take the documented defaults.
type Config struct {
	// Shards is the lock-domain count (default 64, at most MaxShards). A
	// summary is O(Shards).
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
	boms   bomTable
	count  atomic.Int64
	// gen counts structural mutations (upsert, remove, restore, recompute
	// install). A staged recompute remembers the generation it priced and
	// restages at commit if mutations landed in between.
	gen atomic.Uint64
	log WALAppender // nil until AttachWAL
}

// New builds an empty registry. It panics when cfg.Shards exceeds
// MaxShards: such a registry would snapshot but never restore, so callers
// that take the count from a user (actd's -fleet-shards, act's -shards)
// refuse it first.
func New(cfg Config) *Registry {
	if cfg.Shards > MaxShards {
		panic(fmt.Sprintf("fleet: %d shards exceeds MaxShards (%d)", cfg.Shards, MaxShards))
	}
	cfg = cfg.withDefaults()
	r := &Registry{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range r.shards {
		r.shards[i] = newShard()
	}
	r.boms.reset(nil)
	return r
}

// Len returns the registered device count.
func (r *Registry) Len() int { return int(r.count.Load()) }

// shardFor picks the shard owning an id.
func (r *Registry) shardFor(id string) *shard {
	return r.shards[ShardIndex(id, len(r.shards))]
}

// Upsert registers dev, replacing any device with the same ID, and folds
// its contribution into the owning shard's running totals. The embodied
// evaluation is shared across identical BoMs, and so is dev.Spec: the
// registry keeps it, so callers must not modify it afterwards. Validation
// failures are typed; a write-ahead-log failure aborts the upsert with the
// registry unchanged.
func (r *Registry) Upsert(dev Device) (replaced bool, err error) {
	if err := dev.Validate(); err != nil {
		return false, fmt.Errorf("fleet: %w", err)
	}
	bom, err := r.boms.forSpec(dev.Spec)
	if err != nil {
		return false, fmt.Errorf("fleet: %w", acterr.Prefix("scenario", err))
	}
	return r.upsert(&dev, bom)
}

// upsert prices a validated device on its BoM entry and applies it.
func (r *Registry) upsert(dev *Device, bom *bomEntry) (replaced bool, err error) {
	rec, err := r.evaluate(dev, bom)
	if err != nil {
		return false, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.apply(rec, true)
}

// evaluate derives a record from a validated device and its BoM entry,
// pricing the contribution under the registry's resolver.
func (r *Registry) evaluate(dev *Device, bom *bomEntry) (*record, error) {
	ci, err := r.cfg.Resolver(dev.Region)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	rec := &record{
		id:          dev.ID,
		region:      dev.Region,
		deployed:    dev.Deployed.UTC(),
		retired:     dev.Retired.UTC(),
		utilization: dev.Utilization,
		bom:         bom,
	}
	rec.contrib = rec.price(bom.embodiedG, ci)
	return rec, nil
}

// apply commits a fully evaluated record: chaos seam, write-ahead log,
// then the in-memory mutation (which cannot fail). The caller read-holds
// r.mu.
func (r *Registry) apply(rec *record, logIt bool) (replaced bool, err error) {
	sh := r.shardFor(rec.id)
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
	old, existed := sh.recs[rec.id]
	if existed {
		sh.applyLocked(old, -1)
	} else {
		r.count.Add(1)
	}
	r.gen.Add(1)
	rec.bom = r.boms.retain(rec.bom)
	sh.recs[rec.id] = rec
	sh.applyLocked(rec, +1)
	if existed {
		r.boms.release(old.bom)
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
	r.boms.release(rec.bom)
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

// bomTable is the registry's BoM table. A fleet deploys a handful of
// distinct bills of materials across many devices, so everything derived
// from a BoM is kept once per canonical key (scenario.CanonicalKey) in a
// refcounted entry that every record deployed with it points at; the
// entry count is the summary's DistinctBoMs, exact as devices come and go.
type bomTable struct {
	mu    sync.Mutex
	byKey map[string]*bomEntry
}

// bomEntry is one distinct BoM. Every field but refs is immutable once the
// entry is built, so records read them without the table lock.
type bomEntry struct {
	// spec is the shared parsed scenario; nothing may modify it.
	spec *scenario.Spec
	// specJSON is the compact scenario.MarshalCompact form, the bytes WAL
	// frames and snapshots carry for every device on this BoM.
	specJSON []byte
	// key is the canonical BoM key, the dedup identity.
	key string
	// node is the canonical primary process node (the first logic die's,
	// snapped), the group-by-node dimension; "" for logic-less devices.
	node string
	// class is the canonical device-class name (the scenario's device
	// name), the group-by-class dimension the telemetry exporter keys its
	// per-class series on. Derived from the spec, so it is never persisted.
	class string
	// embodiedG is the BoM's full embodied footprint (ECF).
	embodiedG float64
	// refs counts the records pointing here; guarded by bomTable.mu.
	refs int
}

// lookup returns the live entry for a canonical key, or nil.
func (t *bomTable) lookup(key string) *bomEntry {
	t.mu.Lock()
	e := t.byKey[key]
	t.mu.Unlock()
	return e
}

// forSpec returns the entry for spec's BoM: the live one with the same
// canonical key, or a new unretained candidate evaluated on first sight.
// The model evaluation runs outside the table lock, and nothing is
// inserted here — retain does, once the upsert commits — so an upsert
// that later fails leaves no zero-ref residue.
func (t *bomTable) forSpec(spec *scenario.Spec) (*bomEntry, error) {
	key := spec.CanonicalKey()
	if e := t.lookup(key); e != nil {
		return e, nil
	}
	specJSON, err := scenario.MarshalCompact(spec)
	if err != nil {
		return nil, err
	}
	node, err := primaryNode(spec)
	if err != nil {
		return nil, err
	}
	// Priced by the columnar engine, as Recompute prices every BoM.
	var embodiedG [1]float64
	if err := colbatch.EmbodiedTotals([]*scenario.Spec{spec}, embodiedG[:]); err != nil {
		return nil, err
	}
	return newEntry(spec, specJSON, key, node, embodiedG[0]), nil
}

// newEntry assembles an unretained entry.
func newEntry(spec *scenario.Spec, specJSON []byte, key, node string, embodiedG float64) *bomEntry {
	return &bomEntry{
		spec:      spec,
		specJSON:  specJSON,
		key:       key,
		node:      node,
		class:     canonClass(spec.Name),
		embodiedG: embodiedG,
	}
}

// retain takes a reference on the live entry for e's key and returns it:
// the existing one if another device holds the key, else e, inserted.
func (t *bomTable) retain(e *bomEntry) *bomEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if live, ok := t.byKey[e.key]; ok {
		live.refs++
		return live
	}
	t.byKey[e.key] = e
	e.refs = 1
	return e
}

// release drops one reference; the entry is evicted at zero.
func (t *bomTable) release(e *bomEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.refs--
	if e.refs == 0 && t.byKey[e.key] == e {
		delete(t.byKey, e.key)
	}
}

// sorted returns the live entries in key order.
func (t *bomTable) sorted() []*bomEntry {
	t.mu.Lock()
	out := make([]*bomEntry, 0, len(t.byKey))
	for _, e := range t.byKey {
		out = append(out, e)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// len returns the distinct-BoM count.
func (t *bomTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byKey)
}

// reset replaces the table contents wholesale (restore/recompute) with
// entries, whose refcounts are already set.
func (t *bomTable) reset(entries map[string]*bomEntry) {
	if entries == nil {
		entries = map[string]*bomEntry{}
	}
	t.mu.Lock()
	t.byKey = entries
	t.mu.Unlock()
}

// dateFormat is the wire date form (RFC 3339 is also accepted on input).
const dateFormat = "2006-01-02"
