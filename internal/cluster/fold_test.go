package cluster

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"act/internal/fleet"
	"act/internal/report"
)

func mkShard(idx int, devices int64, embodied, share, op float64) fleet.ShardAggregate {
	return fleet.ShardAggregate{
		Index: idx, Devices: devices,
		EmbodiedG: embodied, EmbodiedShareG: share, OperationalG: op,
	}
}

// TestFoldRefusals covers every way a gather can be unfoldable.
func TestFoldRefusals(t *testing.T) {
	base := Partial{Node: "http://a", ShardsTotal: 4, Epoch: 1,
		Shards: []fleet.ShardAggregate{mkShard(0, 1, 1, 1, 1)}}

	if _, err := Fold(fleet.Query{}, nil); err == nil {
		t.Error("empty gather folded")
	}
	if _, err := Fold(fleet.Query{TopK: -1}, []Partial{base}); err == nil {
		t.Error("invalid query folded")
	}

	mixed := Partial{Node: "http://b", ShardsTotal: 4, Epoch: 2}
	if _, err := Fold(fleet.Query{}, []Partial{base, mixed}); !errors.Is(err, ErrEpochMixed) {
		t.Errorf("mixed epochs: err = %v, want ErrEpochMixed", err)
	}

	disagree := Partial{Node: "http://b", ShardsTotal: 8, Epoch: 1}
	if _, err := Fold(fleet.Query{}, []Partial{base, disagree}); err == nil ||
		!strings.Contains(err.Error(), "shard count disagreement") {
		t.Errorf("shard count disagreement: err = %v", err)
	}

	dup := Partial{Node: "http://b", ShardsTotal: 4, Epoch: 1,
		Shards: []fleet.ShardAggregate{mkShard(0, 2, 2, 2, 2)}}
	if _, err := Fold(fleet.Query{}, []Partial{base, dup}); err == nil ||
		!strings.Contains(err.Error(), "claimed by both") {
		t.Errorf("duplicate shard: err = %v", err)
	}

	oob := Partial{Node: "http://b", ShardsTotal: 4, Epoch: 1,
		Shards: []fleet.ShardAggregate{mkShard(9, 1, 1, 1, 1)}}
	if _, err := Fold(fleet.Query{}, []Partial{base, oob}); err == nil ||
		!strings.Contains(err.Error(), "outside") {
		t.Errorf("out-of-range shard: err = %v", err)
	}

	zero := Partial{Node: "http://a", ShardsTotal: 0, Epoch: 1}
	if _, err := Fold(fleet.Query{}, []Partial{zero}); err == nil {
		t.Error("zero shard count folded")
	}

	// No JSON document can carry a non-finite value, so a fold refuses
	// one a peer reports and sums that overflow the float range.
	big := 1.7e308
	nonFinite := map[string][]Partial{
		"+Inf shard": {{Node: "http://a", ShardsTotal: 4, Epoch: 1,
			Shards: []fleet.ShardAggregate{mkShard(0, 1, math.Inf(1), 1, 1)}}},
		"NaN shard": {{Node: "http://a", ShardsTotal: 4, Epoch: 1,
			Shards: []fleet.ShardAggregate{mkShard(0, 1, 1, 1, math.NaN())}}},
		"-Inf top device": {{Node: "http://a", ShardsTotal: 4, Epoch: 1,
			Shards: []fleet.ShardAggregate{mkShard(0, 1, 1, 1, 1)},
			Top:    []report.FleetDeviceJSON{{ID: "d", TotalG: math.Inf(-1)}}}},
		"overflowing embodied sum": {
			{Node: "http://a", ShardsTotal: 4, Epoch: 1, Shards: []fleet.ShardAggregate{mkShard(0, 1, big, 1, 1)}},
			{Node: "http://b", ShardsTotal: 4, Epoch: 1, Shards: []fleet.ShardAggregate{mkShard(1, 1, big, 1, 1)}},
		},
		"overflowing total": {
			{Node: "http://a", ShardsTotal: 4, Epoch: 1, Shards: []fleet.ShardAggregate{mkShard(0, 1, 1, big, big)}},
		},
	}
	for name, ps := range nonFinite {
		if _, err := Fold(fleet.Query{TopK: 1}, ps); !errors.Is(err, errNonFinite) {
			t.Errorf("%s: err = %v, want errNonFinite", name, err)
		}
	}
	overGroup := Partial{Node: "http://a", ShardsTotal: 4, Epoch: 1, Shards: []fleet.ShardAggregate{
		{Index: 0, Devices: 1, ByRegion: []fleet.GroupSlot{{Key: "europe", Devices: 1, EmbodiedShareG: big}}},
		{Index: 1, Devices: 1, ByRegion: []fleet.GroupSlot{{Key: "europe", Devices: 1, EmbodiedShareG: big}}},
	}}
	if _, err := Fold(fleet.Query{GroupBy: "region"}, []Partial{overGroup}); !errors.Is(err, errNonFinite) {
		t.Errorf("overflowing group: err = %v, want errNonFinite", err)
	}

	// A peer's shard count sizes the fold's index, so an implausible one
	// must be refused before anything is allocated by it.
	for _, total := range []int{1 << 62, 1 << 34, fleet.MaxShards + 1} {
		huge := Partial{Node: "http://a", ShardsTotal: total, Epoch: 1}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Fold(fleet.Query{}, []Partial{huge})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "implausible shard count") {
			t.Errorf("shards_total %d: err = %v, want implausible shard count", total, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("shards_total %d: refusing it allocated %d bytes", total, grew)
		}
	}
}

// TestFoldMerges checks scalar, group, BoM-union and top-K merging over
// hand-built partials.
func TestFoldMerges(t *testing.T) {
	a := Partial{
		Node: "http://a", ShardsTotal: 4, Epoch: 3,
		Shards: []fleet.ShardAggregate{
			{Index: 0, Devices: 2, EmbodiedG: 10, EmbodiedShareG: 5, OperationalG: 1,
				ByRegion: []fleet.GroupSlot{{Key: "eu", Devices: 2, EmbodiedShareG: 5, OperationalG: 1}}},
			{Index: 2, Devices: 1, EmbodiedG: 4, EmbodiedShareG: 2, OperationalG: 2,
				ByRegion: []fleet.GroupSlot{{Key: "us", Devices: 1, EmbodiedShareG: 2, OperationalG: 2}}},
		},
		BoMHashes: []uint64{1, 2},
		Top: []report.FleetDeviceJSON{
			{ID: "a1", TotalG: 9}, {ID: "a2", TotalG: 3},
		},
	}
	b := Partial{
		Node: "http://b", ShardsTotal: 4, Epoch: 3,
		Shards: []fleet.ShardAggregate{
			{Index: 1, Devices: 3, EmbodiedG: 6, EmbodiedShareG: 3, OperationalG: 3,
				ByRegion: []fleet.GroupSlot{{Key: "eu", Devices: 3, EmbodiedShareG: 3, OperationalG: 3}}},
		},
		BoMHashes: []uint64{2, 3},
		Top: []report.FleetDeviceJSON{
			{ID: "b1", TotalG: 7}, {ID: "b2", TotalG: 3},
		},
	}
	doc, err := Fold(fleet.Query{TopK: 3, GroupBy: "region"}, []Partial{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Devices != 6 || doc.EmbodiedTotalG != 20 || doc.EmbodiedShareG != 10 || doc.OperationalG != 6 {
		t.Errorf("totals = %+v", doc)
	}
	if doc.TotalG != 16 {
		t.Errorf("TotalG = %v", doc.TotalG)
	}
	if doc.DistinctBoMs != 3 {
		t.Errorf("DistinctBoMs = %d, want 3 (union of {1,2} and {2,3})", doc.DistinctBoMs)
	}
	if doc.GroupBy != "region" || len(doc.Groups) != 2 {
		t.Fatalf("groups = %+v", doc.Groups)
	}
	if g := doc.Groups[0]; g.Key != "eu" || g.Devices != 5 || g.EmbodiedShareG != 8 || g.TotalG != 12 {
		t.Errorf("eu group = %+v", g)
	}
	if g := doc.Groups[1]; g.Key != "us" || g.Devices != 1 {
		t.Errorf("us group = %+v", g)
	}
	// Top: sorted by total desc, ties by id asc, truncated to 3.
	wantTop := []string{"a1", "b1", "a2"} // a2 and b2 tie at 3; a2 wins by id
	if len(doc.Top) != 3 {
		t.Fatalf("top = %+v", doc.Top)
	}
	for i, w := range wantTop {
		if doc.Top[i].ID != w {
			t.Errorf("top[%d] = %s, want %s", i, doc.Top[i].ID, w)
		}
	}
}

// TestFoldUnreportedShards: shards no member reports (globally empty)
// contribute exact zeros — the fold synthesizes nothing for them.
func TestFoldUnreportedShards(t *testing.T) {
	a := Partial{Node: "http://a", ShardsTotal: 64, Epoch: 0,
		Shards: []fleet.ShardAggregate{mkShard(63, 1, 2, 1, 1)}}
	doc, err := Fold(fleet.Query{}, []Partial{a})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Devices != 1 || doc.EmbodiedTotalG != 2 {
		t.Errorf("doc = %+v", doc)
	}
}
