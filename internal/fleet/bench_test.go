package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"act/internal/scenario"
)

// benchLines pre-renders NDJSON device lines over `distinct` BoM shapes.
func benchLines(b *testing.B, n, distinct int) [][]byte {
	b.Helper()
	regions := []string{"united-states", "europe", "india", "world"}
	specs := make([][]byte, distinct)
	for i := range specs {
		raw, err := scenario.Marshal(testSpec(i))
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = raw
	}
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf(
			`{"id":"dev-%07d","region":%q,"deployed":"2024-01-01","utilization":0.5,"scenario":%s}`,
			i, regions[i%len(regions)], specs[i%distinct]))
	}
	return lines
}

// BenchmarkFleetIngest measures the full per-device ingest path: NDJSON
// decode, validation, canonical-key dedup, contribution pricing, shard
// apply.
func BenchmarkFleetIngest(b *testing.B) {
	lines := benchLines(b, 4096, 32)
	reg := New(Config{Shards: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.IngestNDJSON(bytes.NewReader(lines[i%len(lines)]), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// chunkBodies renders n NDJSON request bodies of size devices each, the
// shape actd ingests: BoMs drawn 90% from a 256-entry pool and the rest
// from a 4096-entry one, and every tenth line re-sending an earlier id.
func chunkBodies(tb testing.TB, n, size int) [][]byte {
	tb.Helper()
	const smallPool, largePool = 256, 4096
	regions := []string{"united-states", "europe", "india", "world"}
	wires := make([][]byte, smallPool+largePool)
	for i := range wires {
		raw, err := scenario.Marshal(testSpec(i))
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			tb.Fatal(err)
		}
		wires[i] = buf.Bytes()
	}
	// splitmix64: a fixed stream, so every run ingests the same bodies.
	state := uint64(1)
	next := func(n int) int {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int((z ^ (z >> 31)) % uint64(n))
	}
	bodies := make([][]byte, n)
	for c := range bodies {
		var buf bytes.Buffer
		for j := 0; j < size; j++ {
			k := c*size + j
			id := k
			if k > 0 && next(10) == 0 {
				id = next(k)
			}
			bom := smallPool + next(largePool)
			if next(10) < 9 {
				bom = next(smallPool)
			}
			fmt.Fprintf(&buf, `{"id":"dev-%07d","region":%q,"deployed":"2024-01-01","utilization":0.%d,"scenario":%s}`+"\n",
				id, regions[next(len(regions))], 1+next(9), wires[bom])
		}
		bodies[c] = buf.Bytes()
	}
	return bodies
}

// BenchmarkFleetIngestChunk measures ingest the way actd receives it:
// whole 500-device NDJSON bodies (chunkBodies) into one registry, cycling
// over 64 bodies so most BoMs are warm and later passes replace ids. It
// reports devices/s and allocs/device.
func BenchmarkFleetIngestChunk(b *testing.B) {
	const size = 500
	bodies := chunkBodies(b, 64, size)
	reg := New(Config{Shards: 64})
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		if _, err := reg.IngestNDJSON(bytes.NewReader(bodies[i%len(bodies)]), 0); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	devices := float64(b.N * size)
	b.ReportMetric(devices/b.Elapsed().Seconds(), "devices/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/devices, "allocs/device")
}

// millionFleet is built once and shared across summary benchmarks: the
// acceptance target is a fleet-wide summary over one million devices.
var (
	millionOnce sync.Once
	millionReg  *Registry
)

func millionFleet(b *testing.B) *Registry {
	b.Helper()
	millionOnce.Do(func() {
		const n = 1_000_000
		reg := New(Config{Shards: 64})
		regions := []string{"united-states", "europe", "india", "world"}
		// Pre-parse the distinct devices once; Upsert re-evaluates the
		// canonical key per call, which is the realistic ingest cost.
		protos := make([]Device, 64)
		for i := range protos {
			protos[i] = testDevice("proto", i%32, regions[i%len(regions)])
			protos[i].Utilization = 0.5
		}
		for i := 0; i < n; i++ {
			dev := protos[i%len(protos)]
			dev.ID = fmt.Sprintf("dev-%07d", i)
			if _, err := reg.Upsert(dev); err != nil {
				panic(err)
			}
		}
		millionReg = reg
	})
	return millionReg
}

// BenchmarkFleetSummary pins the headline guarantee: the incremental
// aggregates answer a fleet-wide summary over 1M devices in O(shards) —
// the acceptance bound is <10ms per summary.
func BenchmarkFleetSummary(b *testing.B) {
	reg := millionFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := reg.Summary()
		if doc.Devices != 1_000_000 {
			b.Fatalf("summary devices = %d", doc.Devices)
		}
	}
}

// BenchmarkFleetSummaryGrouped adds the group-by merge across shards.
func BenchmarkFleetSummaryGrouped(b *testing.B) {
	reg := millionFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Query(Query{GroupBy: "region"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetTopK is the one O(devices) query, for contrast with the
// O(shards) summary above.
func BenchmarkFleetTopK(b *testing.B) {
	reg := millionFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Query(Query{TopK: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetRecompute reprices the full million-device registry: the
// deduped BoM set re-evaluates through the columnar engine, then every
// shard refolds in canonical order. This is the one O(devices) mutation;
// the acceptance bound is single-digit seconds per recompute at 1M devices.
func BenchmarkFleetRecompute(b *testing.B) {
	reg := millionFleet(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.Recompute(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*1_000_000/b.Elapsed().Seconds(), "devices/s")
}
