package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"

	"act/internal/resilience"
)

// FetchPartials gathers each member's per-shard partial over plain HTTP —
// the fold input path `act fleet -peers` drives. Unlike Cluster.GatherPartials
// it needs no Cluster value and no membership ring: the caller hands it the
// peer list, and a one-shot CLI either gets every member or an error naming
// the one it could not reach — one attempt per member and no breaker.
// topK > 0 asks each member for its local top-K emitters so the fold can
// merge them; groupBy names the one group dimension the fold will read
// ("" for none), and each partial carries only that dimension's slots.
func FetchPartials(ctx context.Context, hc *http.Client, bases []string, topK int, groupBy string) ([]Partial, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("cluster: no peers to fetch from")
	}
	partials := make([]Partial, 0, len(bases))
	for _, base := range bases {
		nb, err := normalizeURL(base)
		if err != nil {
			return nil, err
		}
		p := &peerClient{base: nb, hc: hc, retry: resilience.RetryPolicy{MaxAttempts: 1}}
		part, err := p.partial(ctx, topK, groupBy)
		if err != nil {
			return nil, err
		}
		partials = append(partials, part)
	}
	sort.Slice(partials, func(i, j int) bool { return partials[i].Node < partials[j].Node })
	return partials, nil
}
