// Incremental aggregation queries. A summary folds the per-shard running
// totals in shard order — O(shards) work however many devices are
// registered — and group-by merges the per-shard group maps the same way.
// Top-K is the one O(devices) query: it fans the per-shard scans out
// through parsweep and merges the per-shard winners.

package fleet

import (
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

// Query returns the fleet document with the requested optional sections.
func (r *Registry) Query(q Query) (report.FleetSummaryJSON, error) {
	if err := q.Validate(); err != nil {
		return report.FleetSummaryJSON{}, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()

	var doc report.FleetSummaryJSON
	groups := map[string]*groupAgg{}
	for _, sh := range r.shards {
		sh.mu.Lock()
		doc.Devices += int(sh.agg.devices)
		doc.EmbodiedTotalG += sh.agg.embodiedG
		doc.EmbodiedShareG += sh.agg.embodiedShareG
		doc.OperationalG += sh.agg.operationalG
		if q.GroupBy != "" {
			dim := sh.byRegion
			switch q.GroupBy {
			case "node":
				dim = sh.byNode
			case "class":
				dim = sh.byClass
			}
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
		}
		sh.mu.Unlock()
	}
	doc.TotalG = doc.EmbodiedShareG + doc.OperationalG
	doc.DistinctBoMs = r.boms.len()

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
		doc.Top = r.topK(q.TopK)
	}
	return doc, nil
}

// topK returns the K largest emitters (per-device total grams, ties broken
// by id so the answer is deterministic). Each shard keeps a bounded best-K
// of its own records on a parsweep worker, the merge sorts the at most
// K x shards survivors, and only the K winners become documents. The
// caller read-holds r.mu.
func (r *Registry) topK(k int) []report.FleetDeviceJSON {
	perShard := parsweep.Map(r.cfg.Workers, r.shards, func(_ int, sh *shard) []*record {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return bestK(sh.recs, k)
	})
	n := 0
	for _, s := range perShard {
		n += len(s)
	}
	merged := make([]*record, 0, n)
	for _, s := range perShard {
		merged = append(merged, s...)
	}
	sort.Slice(merged, func(i, j int) bool { return outranks(merged[i], merged[j]) })
	if len(merged) > k {
		merged = merged[:k]
	}
	out := make([]report.FleetDeviceJSON, len(merged))
	for i, rec := range merged {
		out[i] = report.FleetDeviceJSON{
			ID:             rec.id,
			Region:         canonRegion(rec.region),
			Node:           rec.bom.node,
			EmbodiedG:      rec.contrib.embodiedG,
			EmbodiedShareG: rec.contrib.embodiedShareG,
			OperationalG:   rec.contrib.operationalG,
			TotalG:         rec.contrib.totalG(),
		}
	}
	return out
}

// outranks orders emitters by descending total, ties by ascending id.
func outranks(a, b *record) bool {
	if ta, tb := a.contrib.totalG(), b.contrib.totalG(); ta != tb {
		return ta > tb
	}
	return a.id < b.id
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
				if !outranks(h[p], h[i]) {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			continue
		}
		if !outranks(rec, h[0]) {
			continue
		}
		h[0] = rec
		for i := 0; ; {
			least, l, r := i, 2*i+1, 2*i+2
			if l < len(h) && outranks(h[least], h[l]) {
				least = l
			}
			if r < len(h) && outranks(h[least], h[r]) {
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
