package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"act/internal/acterr"
	"act/internal/core"
	"act/internal/report"
	"act/internal/scenario"
	"act/internal/units"
)

// refFleet is the per-device registry this package used to be, kept as
// the differential oracle for the BoM table, the single-pass decoder and
// the bounded top-K. Every line is decoded twice (to raw bytes, then
// ParseDevice), every device carries its own spec, indented bytes, key,
// node and class, and top-K sorts every record. It folds shard totals
// exactly as the registry does, so summaries compare byte for byte. It
// has no locks and no persistence; Restored models what a snapshot
// restore rebuilds.
type refFleet struct {
	resolver IntensityResolver
	shards   []*refShard
	embodied map[string]float64
	refs     map[string]int
}

type refRecord struct {
	dev      Device
	specJSON []byte
	key      string
	node     string
	class    string
	contrib  contribution
}

type refShard struct {
	recs     map[string]*refRecord
	agg      aggregate
	byRegion map[string]*groupAgg
	byNode   map[string]*groupAgg
	byClass  map[string]*groupAgg
}

func newRefFleet(shards int) *refFleet {
	f := &refFleet{
		resolver: StaticRegions(),
		shards:   make([]*refShard, shards),
		embodied: map[string]float64{},
		refs:     map[string]int{},
	}
	for i := range f.shards {
		f.shards[i] = &refShard{
			recs:     map[string]*refRecord{},
			byRegion: map[string]*groupAgg{},
			byNode:   map[string]*groupAgg{},
			byClass:  map[string]*groupAgg{},
		}
	}
	return f
}

func (sh *refShard) apply(rec *refRecord, sign float64) {
	sh.agg.add(rec.contrib, sign)
	sh.agg.devices += int64(sign)
	applyGroup(sh.byRegion, canonRegion(rec.dev.Region), rec.contrib, sign)
	applyGroup(sh.byNode, rec.node, rec.contrib, sign)
	applyGroup(sh.byClass, rec.class, rec.contrib, sign)
}

// IngestNDJSON is the old two-decode ingest loop.
func (f *refFleet) IngestNDJSON(rd io.Reader, maxDevices int) (IngestResult, error) {
	var res IngestResult
	dec := json.NewDecoder(rd)
	for i := 0; ; i++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if errors.Is(err, io.EOF) {
				return res, nil
			}
			var syn *json.SyntaxError
			if errors.As(err, &syn) || errors.Is(err, io.ErrUnexpectedEOF) {
				return res, fmt.Errorf("fleet: %w",
					acterr.Prefix(fmt.Sprintf("device[%d]", i), acterr.Invalid("", "malformed JSON: %v", err)))
			}
			return res, fmt.Errorf("fleet: device[%d]: %w", i, err)
		}
		if maxDevices > 0 && i >= maxDevices {
			return res, fmt.Errorf("fleet: %w: limit %d", ErrTooMany, maxDevices)
		}
		dev, err := ParseDevice(raw)
		if err != nil {
			return res, prefixRecord(i, err)
		}
		replaced, err := f.Upsert(*dev)
		if err != nil {
			return res, prefixRecord(i, err)
		}
		res.Upserted++
		if replaced {
			res.Replaced++
		}
	}
}

// Upsert is the old per-device upsert: marshal, node, key and the cached
// embodied figure per device.
func (f *refFleet) Upsert(dev Device) (bool, error) {
	if err := dev.Validate(); err != nil {
		return false, fmt.Errorf("fleet: %w", err)
	}
	specJSON, err := scenario.Marshal(dev.Spec)
	if err != nil {
		return false, fmt.Errorf("fleet: %w", acterr.Prefix("scenario", err))
	}
	node, err := primaryNode(dev.Spec)
	if err != nil {
		return false, fmt.Errorf("fleet: %w", acterr.Prefix("scenario", err))
	}
	key := dev.Spec.CanonicalKey()
	embodiedG, ok := f.embodied[key]
	if !ok {
		if embodiedG, err = embodiedOf(dev.Spec); err != nil {
			return false, fmt.Errorf("fleet: %w", acterr.Prefix("scenario", err))
		}
	}
	ci, err := f.resolver(dev.Region)
	if err != nil {
		return false, fmt.Errorf("fleet: %w", err)
	}
	rec := &refRecord{
		dev:      dev,
		specJSON: specJSON,
		key:      key,
		node:     node,
		class:    canonClass(dev.Spec.Name),
		contrib:  refContribution(&dev, embodiedG, ci),
	}
	sh := f.shards[ShardIndex(dev.ID, len(f.shards))]
	old, existed := sh.recs[dev.ID]
	if existed {
		sh.apply(old, -1)
	}
	sh.recs[dev.ID] = rec
	sh.apply(rec, +1)
	if f.refs[key] == 0 {
		f.embodied[key] = embodiedG
	}
	f.refs[key]++
	if existed {
		f.release(old.key)
	}
	return existed, nil
}

// embodiedOf prices a BoM with the scalar model, the oracle the
// registry's columnar pricing is checked against.
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

func (f *refFleet) release(key string) {
	if f.refs[key]--; f.refs[key] <= 0 {
		delete(f.refs, key)
		delete(f.embodied, key)
	}
}

// Remove unregisters a device.
func (f *refFleet) Remove(id string) bool {
	sh := f.shards[ShardIndex(id, len(f.shards))]
	rec, ok := sh.recs[id]
	if !ok {
		return false
	}
	delete(sh.recs, id)
	sh.apply(rec, -1)
	f.release(rec.key)
	return true
}

// refContribution is the old contributionOf, priced from the device's own
// spec.
func refContribution(dev *Device, embodiedG float64, ci units.CarbonIntensity) contribution {
	lt := dev.Spec.Lifetime()
	active := dev.Retired.Sub(dev.Deployed).Hours() / (365.25 * 24)
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

// Query is the old summary fold with a full-sort top-K.
func (f *refFleet) Query(q Query) (report.FleetSummaryJSON, error) {
	if err := q.Validate(); err != nil {
		return report.FleetSummaryJSON{}, err
	}
	var doc report.FleetSummaryJSON
	groups := map[string]*groupAgg{}
	var all []report.FleetDeviceJSON
	for _, sh := range f.shards {
		doc.Devices += int(sh.agg.devices)
		doc.EmbodiedTotalG += sh.agg.embodiedG
		doc.EmbodiedShareG += sh.agg.embodiedShareG
		doc.OperationalG += sh.agg.operationalG
		dim := map[string]map[string]*groupAgg{"region": sh.byRegion, "node": sh.byNode, "class": sh.byClass}[q.GroupBy]
		for key, g := range dim {
			m, ok := groups[key]
			if !ok {
				m = &groupAgg{}
				groups[key] = m
			}
			m.devices += g.devices
			m.embodiedShareG += g.embodiedShareG
			m.operationalG += g.operationalG
		}
		for _, rec := range sh.recs {
			all = append(all, report.FleetDeviceJSON{
				ID:             rec.dev.ID,
				Region:         canonRegion(rec.dev.Region),
				Node:           rec.node,
				EmbodiedG:      rec.contrib.embodiedG,
				EmbodiedShareG: rec.contrib.embodiedShareG,
				OperationalG:   rec.contrib.operationalG,
				TotalG:         rec.contrib.totalG(),
			})
		}
	}
	doc.TotalG = doc.EmbodiedShareG + doc.OperationalG
	doc.DistinctBoMs = len(f.refs)
	if q.GroupBy != "" {
		doc.GroupBy = q.GroupBy
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		doc.Groups = make([]report.FleetGroupJSON, 0, len(keys))
		for _, k := range keys {
			g := groups[k]
			doc.Groups = append(doc.Groups, report.FleetGroupJSON{
				Key:            k,
				Devices:        int(g.devices),
				EmbodiedShareG: g.embodiedShareG,
				OperationalG:   g.operationalG,
				TotalG:         g.embodiedShareG + g.operationalG,
			})
		}
	}
	if q.TopK > 0 {
		sort.Slice(all, func(i, j int) bool {
			if all[i].TotalG != all[j].TotalG {
				return all[i].TotalG > all[j].TotalG
			}
			return all[i].ID < all[j].ID
		})
		if len(all) > q.TopK {
			all = all[:q.TopK]
		}
		doc.Top = all
	}
	return doc, nil
}

// Restored is the state a snapshot restore of f rebuilds: totals, region
// and node groups verbatim, records with their windows at the persisted
// nanosecond, and the class groups refolded per shard in sorted-id order.
func (f *refFleet) Restored() *refFleet {
	out := newRefFleet(len(f.shards))
	for k, v := range f.refs {
		out.refs[k] = v
		out.embodied[k] = f.embodied[k]
	}
	for i, sh := range f.shards {
		ns := out.shards[i]
		ns.agg, ns.byRegion, ns.byNode = sh.agg, copyGroups(sh.byRegion), copyGroups(sh.byNode)
		ids := make([]string, 0, len(sh.recs))
		for id := range sh.recs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			rec := *sh.recs[id]
			rec.dev.Deployed = time.Unix(0, rec.dev.Deployed.UnixNano()).UTC()
			rec.dev.Retired = time.Unix(0, rec.dev.Retired.UnixNano()).UTC()
			ns.recs[id] = &rec
			applyGroup(ns.byClass, rec.class, rec.contrib, +1)
		}
	}
	return out
}

func copyGroups(dim map[string]*groupAgg) map[string]*groupAgg {
	out := make(map[string]*groupAgg, len(dim))
	for k, g := range dim {
		c := *g
		out[k] = &c
	}
	return out
}
