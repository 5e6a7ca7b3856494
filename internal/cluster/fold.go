// The scatter-gather fold: per-node partials in, the single-registry
// summary document out, bit for bit. Partial carries the verbatim
// running state of every shard a node owns. Fold checks what only a
// gather can get wrong — members disagreeing on the shard count or the
// recompute epoch, shards out of range or claimed twice, values that are
// not finite or sum past the float range — and then hands the gathered
// shards, in global index order, to the registry's own summary fold
// (fleet.Fold). Because each shard's floats are the shard's
// own running totals — not re-derived — and the fold visits them in the
// same order the single registry would, the folded document is
// byte-identical to what one registry holding the whole fleet serves.

package cluster

import (
	"errors"
	"fmt"
	"math"

	"act/internal/faultinject"
	"act/internal/fleet"
	"act/internal/report"
)

// Partial is one node's contribution to a scatter-gather query: the
// per-shard running totals of every shard it owns, the hashes of its
// distinct BoM keys, and (when the query asked for one) its local top-K
// emitter list.
type Partial struct {
	// Node is the reporting member's base URL.
	Node string `json:"node"`
	// ShardsTotal is the registry's global shard count; every member must
	// agree on it or shard indices are not comparable.
	ShardsTotal int `json:"shards_total"`
	// Epoch counts committed cluster recomputes on the node. A fold
	// refuses mixed epochs — that is the two-phase recompute's guarantee
	// that no summary mixes shard totals priced under different tables.
	Epoch   uint64                 `json:"epoch"`
	Devices int64                  `json:"devices"`
	Shards  []fleet.ShardAggregate `json:"shards"`
	// BoMHashes are the sorted FNV-64a hashes of the node's distinct
	// canonical BoM keys; the fold counts DistinctBoMs as the size of
	// their union across nodes.
	BoMHashes []uint64 `json:"bom_hashes,omitempty"`
	// Top is the node's local top-K emitter list when the query asked for
	// one; the fold merges, re-sorts and truncates.
	Top []report.FleetDeviceJSON `json:"top,omitempty"`
}

// ErrEpochMixed reports partials gathered across a recompute commit
// wave: some nodes answered with the new pricing, some with the old.
// The caller retries the gather; a persistent mix means a node missed
// its commit and the cluster needs a recompute (or node heal) first.
var ErrEpochMixed = errors.New("cluster: partials span different recompute epochs")

// Fold merges per-node partials into the summary document for q. It is
// the cluster's answer to Registry.Query and reproduces its bytes
// exactly (see the package comment for why that holds).
func Fold(q fleet.Query, partials []Partial) (report.FleetSummaryJSON, error) {
	f, err := fleet.NewFold(q)
	if err != nil {
		return report.FleetSummaryJSON{}, err
	}
	if err := faultinject.VisitNoCtx(faultinject.SiteClusterFold); err != nil {
		return report.FleetSummaryJSON{}, fmt.Errorf("cluster: fold: %w", err)
	}
	if len(partials) == 0 {
		return report.FleetSummaryJSON{}, errors.New("cluster: fold needs at least one partial")
	}
	total := partials[0].ShardsTotal
	epoch := partials[0].Epoch
	for _, p := range partials[1:] {
		if p.ShardsTotal != total {
			return report.FleetSummaryJSON{}, fmt.Errorf(
				"cluster: shard count disagreement: %s reports %d shards, %s reports %d",
				partials[0].Node, total, p.Node, p.ShardsTotal)
		}
		if p.Epoch != epoch {
			return report.FleetSummaryJSON{}, fmt.Errorf("%w: %s at %d, %s at %d",
				ErrEpochMixed, partials[0].Node, epoch, p.Node, p.Epoch)
		}
	}
	// The count comes from peer bytes and sizes the index below.
	if total <= 0 || total > fleet.MaxShards {
		return report.FleetSummaryJSON{}, fmt.Errorf("cluster: implausible shard count %d", total)
	}

	// Lay the gathered shards out by global index. Two nodes claiming the
	// same index means the membership (or ring) disagrees somewhere —
	// folding would double count, so refuse.
	type owned struct {
		node string
		agg  *fleet.ShardAggregate
	}
	byIndex := make([]owned, total)
	for pi := range partials {
		p := &partials[pi]
		for si := range p.Shards {
			sa := &p.Shards[si]
			if sa.Index < 0 || sa.Index >= total {
				return report.FleetSummaryJSON{}, fmt.Errorf(
					"cluster: %s reports shard %d outside [0,%d)", p.Node, sa.Index, total)
			}
			if prev := byIndex[sa.Index]; prev.agg != nil {
				return report.FleetSummaryJSON{}, fmt.Errorf(
					"cluster: shard %d claimed by both %s and %s (membership disagreement)",
					sa.Index, prev.node, p.Node)
			}
			byIndex[sa.Index] = owned{node: p.Node, agg: sa}
		}
	}

	// Shards no node reported (empty everywhere) hold exact zeros, which
	// the fold skips.
	for _, o := range byIndex {
		if o.agg != nil {
			f.AddShard(o.agg)
		}
	}
	distinct := map[uint64]struct{}{}
	for _, p := range partials {
		for _, h := range p.BoMHashes {
			distinct[h] = struct{}{}
		}
		f.AddTop(p.Top)
	}
	doc := f.Finish(len(distinct))
	// A non-finite peer value makes its sum non-finite, and finite values
	// can still overflow (two shards of 1.7e308 sum to +Inf), so checking
	// the folded document covers both.
	ok := finite(doc.EmbodiedTotalG, doc.EmbodiedShareG, doc.OperationalG, doc.TotalG)
	for _, g := range doc.Groups {
		ok = ok && finite(g.EmbodiedShareG, g.OperationalG, g.TotalG)
	}
	for _, d := range doc.Top {
		ok = ok && finite(d.EmbodiedG, d.EmbodiedShareG, d.OperationalG, d.TotalG)
	}
	if !ok {
		return report.FleetSummaryJSON{}, errNonFinite
	}
	return doc, nil
}

// errNonFinite refuses a fold holding a value outside the float range,
// reported by a peer or reached by summing: no JSON document can carry
// one, so such a fold must never reach a response.
var errNonFinite = errors.New("cluster: fold: a peer value or sum is not finite")

// finite reports whether every value is neither NaN nor ±Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
