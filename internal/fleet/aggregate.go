// Incremental aggregation queries and the summary fold. A summary folds
// the per-shard running totals in shard order — O(shards) work however
// many devices are registered — and group-by merges the per-shard group
// maps the same way. Top-K is the one O(devices) query: it fans the
// per-shard scans out through parsweep and merges the per-shard winners.
//
// Fold is the only place shard totals become a summary document:
// Registry.Query feeds it from the live shards, and the cluster feeds it
// the shard aggregates its members report. Because both visit shards in
// global index order and add the same float bits, a fold of gathered
// shards reproduces the single registry's bytes.

package fleet

import (
	"slices"
	"sort"

	"act/internal/acterr"
	"act/internal/parsweep"
	"act/internal/report"
)

// Query selects the optional sections of a fleet summary document.
type Query struct {
	// TopK asks for the K largest per-device emitters (0 omits the
	// section).
	TopK int
	// GroupBy adds per-group rows: "region", "node" or "class" ("" omits).
	GroupBy string
}

// Validate checks the query. Failures are typed acterr.InvalidSpecError
// values so the HTTP layer answers 400.
func (q Query) Validate() error {
	if q.TopK < 0 {
		return acterr.Invalid("top", "negative top-K %d", q.TopK)
	}
	switch q.GroupBy {
	case "", "region", "node", "class":
		return nil
	}
	return acterr.Invalid("by", "unknown grouping %q (want region, node or class)", q.GroupBy)
}

// Summary returns the aggregate fleet document from the incremental
// totals: O(shards), no per-device work.
func (r *Registry) Summary() report.FleetSummaryJSON {
	doc, _ := r.Query(Query{})
	return doc
}

// Query returns the fleet document with the requested optional sections,
// folding the live shards in index order, each under its own lock.
func (r *Registry) Query(q Query) (report.FleetSummaryJSON, error) {
	f, err := NewFold(q)
	if err != nil {
		return report.FleetSummaryJSON{}, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, sh := range r.shards {
		sh.mu.Lock()
		f.add(sh.agg.devices, sh.agg.embodiedG, sh.agg.embodiedShareG, sh.agg.operationalG)
		if q.GroupBy != "" {
			for key, g := range sh.dim(q.GroupBy) {
				f.addGroup(key, g.devices, g.embodiedShareG, g.operationalG)
			}
		}
		sh.mu.Unlock()
	}
	if q.TopK > 0 {
		// Every shard's best K are the candidates; only they become
		// documents, straight into the fold's candidate list. Records are
		// immutable once applied, so they are read unlocked.
		perShard := parsweep.Map(r.cfg.Workers, r.shards, func(_ int, sh *shard) []*record {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return bestK(sh.recs, q.TopK)
		})
		n := 0
		for _, best := range perShard {
			n += len(best)
		}
		f.top = slices.Grow(f.top, n)
		for _, best := range perShard {
			for _, rec := range best {
				f.top = append(f.top, report.FleetDeviceJSON{
					ID:             rec.id,
					Region:         canonRegion(rec.region),
					Node:           rec.bom.node,
					EmbodiedG:      rec.contrib.embodiedG,
					EmbodiedShareG: rec.contrib.embodiedShareG,
					OperationalG:   rec.contrib.operationalG,
					TotalG:         rec.contrib.totalG(),
				})
			}
		}
	}
	return f.Finish(r.boms.len()), nil
}

// dim returns the shard's group map for a group-by dimension, nil for "".
func (sh *shard) dim(groupBy string) map[string]*groupAgg {
	switch groupBy {
	case "region":
		return sh.byRegion
	case "node":
		return sh.byNode
	case "class":
		return sh.byClass
	}
	return nil
}

// Fold accumulates one query's summary document. Feed it every shard
// that holds state in ascending global index order, then the candidate
// top emitters in any order, then call Finish. Shards left out must hold
// exact zeros: skipping them is what adding them would do.
type Fold struct {
	q   Query
	doc report.FleetSummaryJSON
	// groups is created on the first group slot, so a plain summary
	// allocates nothing.
	groups map[string]*groupAgg
	top    []report.FleetDeviceJSON
}

// NewFold validates q and starts its fold.
func NewFold(q Query) (Fold, error) {
	if err := q.Validate(); err != nil {
		return Fold{}, err
	}
	return Fold{q: q}, nil
}

// AddShard folds one shard's exported running totals and the slots of
// the query's group dimension.
func (f *Fold) AddShard(sa *ShardAggregate) {
	f.add(sa.Devices, sa.EmbodiedG, sa.EmbodiedShareG, sa.OperationalG)
	if slots := sa.slotsFor(f.q.GroupBy); slots != nil {
		for _, s := range *slots {
			f.addGroup(s.Key, s.Devices, s.EmbodiedShareG, s.OperationalG)
		}
	}
}

// AddTop offers top-K candidates: each shard's (or member's) true local
// best K, so the best K of their union is the global answer. Ignored
// unless the query asks for a top-K.
func (f *Fold) AddTop(devs []report.FleetDeviceJSON) {
	if f.q.TopK > 0 {
		f.top = append(f.top, devs...)
	}
}

func (f *Fold) add(devices int64, embodiedG, embodiedShareG, operationalG float64) {
	f.doc.Devices += int(devices)
	f.doc.EmbodiedTotalG += embodiedG
	f.doc.EmbodiedShareG += embodiedShareG
	f.doc.OperationalG += operationalG
}

func (f *Fold) addGroup(key string, devices int64, embodiedShareG, operationalG float64) {
	if f.groups == nil {
		f.groups = map[string]*groupAgg{}
	}
	g, ok := f.groups[key]
	if !ok {
		g = &groupAgg{}
		f.groups[key] = g
	}
	g.devices += devices
	g.embodiedShareG += embodiedShareG
	g.operationalG += operationalG
}

// Finish completes the document: the grand total, the distinct-BoM count
// (which a fold cannot derive from shard totals), the sorted group rows
// and the merged top-K.
func (f *Fold) Finish(distinctBoMs int) report.FleetSummaryJSON {
	doc := f.doc
	doc.TotalG = doc.EmbodiedShareG + doc.OperationalG
	doc.DistinctBoMs = distinctBoMs
	if f.q.GroupBy != "" {
		doc.GroupBy = f.q.GroupBy
		keys := make([]string, 0, len(f.groups))
		for k := range f.groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		doc.Groups = make([]report.FleetGroupJSON, 0, len(keys))
		for _, k := range keys {
			g := f.groups[k]
			doc.Groups = append(doc.Groups, report.FleetGroupJSON{
				Key:            k,
				Devices:        int(g.devices),
				EmbodiedShareG: g.embodiedShareG,
				OperationalG:   g.operationalG,
				TotalG:         g.embodiedShareG + g.operationalG,
			})
		}
	}
	if f.q.TopK > 0 {
		top := f.top
		sort.Slice(top, func(i, j int) bool {
			return outranks(top[i].TotalG, top[i].ID, top[j].TotalG, top[j].ID)
		})
		doc.Top = top[:min(len(top), f.q.TopK)]
	}
	return doc
}

// outranks is the top-K order: descending total, ties by ascending id so
// the answer is deterministic.
func outranks(totalA float64, idA string, totalB float64, idB string) bool {
	if totalA != totalB {
		return totalA > totalB
	}
	return idA < idB
}

func (rec *record) outranks(o *record) bool {
	return outranks(rec.contrib.totalG(), rec.id, o.contrib.totalG(), o.id)
}

// bestK returns the k records of recs that outrank all others, in no
// particular order. It keeps them in a min-heap whose root is the weakest
// survivor, so each further record costs one comparison unless it
// displaces the root.
func bestK(recs map[string]*record, k int) []*record {
	h := make([]*record, 0, min(k, len(recs)))
	for _, rec := range recs {
		if len(h) < k {
			h = append(h, rec)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !h[p].outranks(h[i]) {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			continue
		}
		if !rec.outranks(h[0]) {
			continue
		}
		h[0] = rec
		for i := 0; ; {
			least, l, r := i, 2*i+1, 2*i+2
			if l < len(h) && h[least].outranks(h[l]) {
				least = l
			}
			if r < len(h) && h[least].outranks(h[r]) {
				least = r
			}
			if least == i {
				break
			}
			h[i], h[least] = h[least], h[i]
			i = least
		}
	}
	return h
}
