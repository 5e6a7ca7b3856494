package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"act/internal/fleet"
	"act/internal/report"
	"act/internal/scenario"
)

// splitFleet registers one fleet twice: whole in a single registry, and
// split across a membership of n members the way a cluster places it,
// each member's registry holding only the devices of the shards it owns.
// It returns the whole registry and the members' Cluster values.
func splitFleet(tb testing.TB, n int) (*fleet.Registry, []*Cluster) {
	tb.Helper()
	const shards = 8
	whole := fleet.New(fleet.Config{Shards: shards})
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://member-%d", i)
	}
	members := make([]*Cluster, n)
	for i := range members {
		c, err := New(Config{Self: urls[i], Peers: urls, Registry: fleet.New(fleet.Config{Shards: shards})})
		if err != nil {
			tb.Fatal(err)
		}
		members[i] = c
	}
	regions := []string{"united-states", "europe", "india", "world"}
	nodes := []string{"7nm", "14nm", "28nm"}
	epoch := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 24; i++ {
		dev := fleet.Device{
			ID:          fmt.Sprintf("dev-%03d", i),
			Region:      regions[i%len(regions)],
			Deployed:    epoch,
			Retired:     epoch.Add(time.Duration(1+i%5) * 4380 * time.Hour),
			Utilization: 0.2 + 0.1*float64(i%7),
			Spec: &scenario.Spec{
				Name:  fmt.Sprintf("class-%d", i%3),
				Logic: []scenario.LogicSpec{{Name: "soc", AreaMM2: float64(20 + i%2), Node: nodes[i%len(nodes)]}},
				DRAM:  []scenario.DRAMSpec{{Name: "ram", Technology: "lpddr4", CapacityGB: 4}},
				Usage: scenario.UsageSpec{PowerW: 1 + float64(i%4), AppHours: 876.6},
			},
		}
		if _, err := whole.Upsert(dev); err != nil {
			tb.Fatal(err)
		}
		owner := members[0].OwnerOf(dev.ID)
		for _, m := range members {
			if m.Self() == owner {
				if _, err := m.Registry().Upsert(dev); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return whole, members
}

// gather returns every member's partial for q, as the coordinator
// receives them.
func gather(tb testing.TB, members []*Cluster, q fleet.Query) []Partial {
	tb.Helper()
	out := make([]Partial, len(members))
	for i, m := range members {
		p, err := m.LocalPartial(q.TopK, q.GroupBy)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = p
	}
	return out
}

// FuzzPartialFold feeds Fold peer-supplied partial bytes. Whatever the
// bytes, Fold must not panic, and a document it does fold must be
// well-formed and encode. The seeds are real partials of one fleet split across 1 to
// 3 members; for any input that decodes to one of those gathers, the
// folded document must equal the whole registry's Query bytes.
func FuzzPartialFold(f *testing.F) {
	queries := []fleet.Query{{}, {TopK: 3, GroupBy: "region"}, {GroupBy: "node"}, {TopK: 30, GroupBy: "class"}}
	oracle := map[string][]byte{}
	for n := 1; n <= 3; n++ {
		whole, members := splitFleet(f, n)
		for _, q := range queries {
			doc, err := whole.Query(q)
			if err != nil {
				f.Fatal(err)
			}
			var want bytes.Buffer
			if err := report.Encode(&want, doc); err != nil {
				f.Fatal(err)
			}
			data, err := json.Marshal(gather(f, members, q))
			if err != nil {
				f.Fatal(err)
			}
			// The oracle is keyed on the canonical encoding the target
			// re-derives, so the seeds must round-trip to their own bytes.
			var back []Partial
			if err := json.Unmarshal(data, &back); err != nil {
				f.Fatal(err)
			}
			if again, _ := json.Marshal(back); !bytes.Equal(again, data) {
				f.Fatalf("partials do not round-trip:\n%s\n%s", data, again)
			}
			oracle[fmt.Sprintf("%d|%s|%s", q.TopK, q.GroupBy, data)] = want.Bytes()
			f.Add(data, q.TopK, q.GroupBy)
		}
	}
	f.Add([]byte(`[{"node":"a","shards_total":4611686018427387904}]`), 0, "")
	f.Add([]byte(`[{"node":"a","shards_total":4,"shards":[{"index":-1}]}]`), 1, "region")
	f.Add([]byte(`[{"node":"a","shards_total":4,"shards":[{"index":0,"embodied_g":1.7e308},{"index":1,"embodied_g":1.7e308}]}]`), 0, "")
	f.Add([]byte(`[{"node":"a","shards_total":4,"shards":[{"index":0,"by_node":[{"key":"7nm","operational_g":1.7e308}]},{"index":1,"by_node":[{"key":"7nm","operational_g":1.7e308}]}]}]`), 0, "node")

	f.Fuzz(func(t *testing.T, data []byte, top int, by string) {
		var partials []Partial
		if err := json.Unmarshal(data, &partials); err != nil {
			return
		}
		q := fleet.Query{TopK: top, GroupBy: by}
		doc, err := Fold(q, partials)
		if err != nil {
			return
		}
		// Every folded document must encode: a fold that cannot be sent
		// would leave serve a committed 200 with no body to write.
		var got bytes.Buffer
		if err := report.Encode(&got, doc); err != nil {
			t.Fatalf("folded document does not encode: %v", err)
		}
		if len(doc.Top) > q.TopK {
			t.Fatalf("top has %d entries for top=%d", len(doc.Top), q.TopK)
		}
		for i := 1; i < len(doc.Top); i++ {
			a, b := doc.Top[i-1], doc.Top[i]
			if a.TotalG < b.TotalG || (a.TotalG == b.TotalG && a.ID > b.ID) {
				t.Fatalf("top out of order at %d: %+v before %+v", i, a, b)
			}
		}
		for i := 1; i < len(doc.Groups); i++ {
			if doc.Groups[i-1].Key >= doc.Groups[i].Key {
				t.Fatalf("groups not strictly sorted at %d", i)
			}
		}
		canon, err := json.Marshal(partials)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := oracle[fmt.Sprintf("%d|%s|%s", q.TopK, q.GroupBy, canon)]
		if !ok {
			return
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("fold of a real split diverges from Registry.Query\n got: %s\nwant: %s", got.Bytes(), want)
		}
	})
}
