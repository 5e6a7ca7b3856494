// Full recomputation. The incremental totals stay exact as long as the
// model tables behind the embodied pricing are the ones the contributions
// were priced under; when the tables change (a new binary with a revised
// Table 9, say), every embodied figure in the registry is stale at once.
// Recompute re-evaluates each distinct BoM exactly once — fanned out
// through parsweep — reprices every record, and rebuilds all shard totals
// from scratch in sorted id order, the canonical fold. It is the only
// O(devices) mutation in the package, which is the point: it runs on
// table change, not on ingest.

package fleet

import (
	"context"
	"fmt"
	"sort"

	"act/internal/colbatch"
	"act/internal/parsweep"
	"act/internal/scenario"
)

// Recompute re-evaluates every registered BoM against the current model
// tables and rebuilds all shard totals. The registry is locked for the
// duration; on failure (cancellation, a resolver error) it is left
// unchanged.
func (r *Registry) Recompute(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.recomputeLocked(ctx); err != nil {
		return err
	}
	if r.log != nil {
		if err := r.log.Append([]byte{opRecompute}); err != nil {
			return fmt.Errorf("fleet: write-ahead log: %w", err)
		}
	}
	return nil
}

// StagedRecompute is a repriced-but-not-installed registry state, the
// prepare half of the cluster's two-phase recompute: every node stages
// its repricing first, and only when every member prepared cleanly does
// the coordinator commit the swap — so a summary fold never mixes shard
// totals priced under different model tables.
type StagedRecompute struct {
	r      *Registry
	gen    uint64
	shards []*shard
	boms   map[string]*bomEntry
	count  int64
}

// PrepareRecompute reprices the whole registry against the current model
// tables into a staged copy, leaving the live state untouched. Commit
// installs it; Abort discards it. The registry stays fully usable in
// between — if mutations land before Commit, the commit restages under
// its own lock rather than installing a stale pricing.
func (r *Registry) PrepareRecompute(ctx context.Context) (*StagedRecompute, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	staged, boms, count, err := r.stageLocked(ctx)
	if err != nil {
		return nil, err
	}
	return &StagedRecompute{r: r, gen: r.gen.Load(), shards: staged, boms: boms, count: count}, nil
}

// Commit installs the staged state, restaging first when the registry
// mutated since Prepare. The install is logged like a plain Recompute so
// a durable registry replays it.
func (s *StagedRecompute) Commit(ctx context.Context) error {
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gen.Load() != s.gen {
		staged, boms, count, err := r.stageLocked(ctx)
		if err != nil {
			return err
		}
		s.shards, s.boms, s.count = staged, boms, count
	}
	r.installLocked(s.shards, s.boms, s.count)
	if r.log != nil {
		if err := r.log.Append([]byte{opRecompute}); err != nil {
			return fmt.Errorf("fleet: write-ahead log: %w", err)
		}
	}
	return nil
}

// Abort discards the staged state. Safe to call after a failed Commit.
func (s *StagedRecompute) Abort() { s.shards, s.boms = nil, nil }

// recomputeLocked stages and installs in one step — the single-node
// path. The caller write-holds r.mu (no readers hold shard locks, so
// shard state is touched directly).
func (r *Registry) recomputeLocked(ctx context.Context) error {
	staged, boms, count, err := r.stageLocked(ctx)
	if err != nil {
		return err
	}
	r.installLocked(staged, boms, count)
	return nil
}

// stageLocked reprices every record into fresh replacement shards and a
// fresh BoM table without touching the live ones. The caller write-holds
// r.mu.
func (r *Registry) stageLocked(ctx context.Context) ([]*shard, map[string]*bomEntry, int64, error) {
	// The BoM table holds exactly the distinct BoMs of the live records;
	// each is evaluated once.
	live := r.boms.sorted()
	// Reprice the deduped BoM set through the columnar engine: contiguous
	// chunks of the sorted key list fan across the pool, each evaluated as
	// one column batch. EmbodiedTotals reports a chunk's lowest-index item
	// error and chunks are ascending, so the surfaced error is the same
	// lowest-key one the per-key fan-out reported.
	vals := make([]float64, len(live))
	specs := make([]*scenario.Spec, len(live))
	for i, e := range live {
		specs[i] = e.spec
	}
	type span struct{ start, end int }
	nChunks := (len(live) + colbatch.DefaultChunk - 1) / colbatch.DefaultChunk
	chunks := make([]span, nChunks)
	for c := range chunks {
		start := c * colbatch.DefaultChunk
		chunks[c] = span{start, min(start+colbatch.DefaultChunk, len(live))}
	}
	if _, err := parsweep.MapErrCtx(ctx, r.cfg.Workers, chunks, func(ctx context.Context, _ int, ch span) (struct{}, error) {
		if err := ctx.Err(); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, colbatch.EmbodiedTotals(specs[ch.start:ch.end], vals[ch.start:ch.end])
	}); err != nil {
		return nil, nil, 0, fmt.Errorf("fleet: recompute: %w", err)
	}
	// The repriced entries differ from the live ones only in embodiedG;
	// the staged records point at them.
	boms := make(map[string]*bomEntry, len(live))
	for i, old := range live {
		e := *old
		e.embodiedG, e.refs = vals[i], 0
		boms[e.key] = &e
	}

	// Stage replacement shards — nothing mutates until every record has
	// repriced cleanly, so a resolver failure leaves the registry intact.
	staged, err := parsweep.MapErrCtx(ctx, r.cfg.Workers, r.shards, func(_ context.Context, _ int, sh *shard) (*shard, error) {
		ns := newShard()
		ids := make([]string, 0, len(sh.recs))
		for id := range sh.recs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			old := sh.recs[id]
			ci, err := r.cfg.Resolver(old.region)
			if err != nil {
				return nil, fmt.Errorf("fleet: recompute device %q: %w", id, err)
			}
			rec := *old
			rec.bom = boms[old.bom.key]
			rec.contrib = rec.price(rec.bom.embodiedG, ci)
			ns.recs[id] = &rec
			ns.applyLocked(&rec, +1)
		}
		return ns, nil
	})
	if err != nil {
		return nil, nil, 0, err
	}

	var count int64
	for _, ns := range staged {
		count += ns.agg.devices
		for _, rec := range ns.recs {
			rec.bom.refs++
		}
	}
	return staged, boms, count, nil
}

// installLocked swaps the staged shards in. The caller write-holds r.mu.
func (r *Registry) installLocked(staged []*shard, boms map[string]*bomEntry, count int64) {
	copy(r.shards, staged)
	r.boms.reset(boms)
	r.count.Store(count)
	r.gen.Add(1)
}
