package fleet

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"act/internal/report"
	"act/internal/scenario"
	"act/internal/units"
	"act/internal/vfs"
)

// TestTopKMatchesSort pins the bounded per-shard top-K to the full sort it
// replaced: every record ordered by descending total, ties by ascending
// id, then cut to K.
func TestTopKMatchesSort(t *testing.T) {
	reg := New(Config{Shards: 4})
	regions := []string{"united-states", "europe", "india", "world"}
	for i := 0; i < 60; i++ {
		// Devices 0-19 share one BoM, region, window and utilization, so
		// their totals tie exactly and only the id orders them.
		dev := testDevice(fmt.Sprintf("tie-%02d", 19-i), 0, "europe")
		if i >= 20 {
			dev = testDevice(fmt.Sprintf("dev-%02d", i), i%7, regions[i%len(regions)])
			dev.Retired = testEpoch.Add(units.Years(0.5 + float64(i%5)))
			dev.Utilization = 0.1 + 0.15*float64(i%6)
		}
		if _, err := reg.Upsert(dev); err != nil {
			t.Fatal(err)
		}
	}
	var all []report.FleetDeviceJSON
	for _, sh := range reg.shards {
		for _, rec := range sh.recs {
			all = append(all, report.FleetDeviceJSON{
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
	sort.Slice(all, func(i, j int) bool {
		if all[i].TotalG != all[j].TotalG {
			return all[i].TotalG > all[j].TotalG
		}
		return all[i].ID < all[j].ID
	})
	maxShard := 0
	for _, sh := range reg.shards {
		maxShard = max(maxShard, len(sh.recs))
	}
	for _, k := range []int{1, 2, 10, 19, 20, 21, maxShard + 1, len(all), len(all) + 5} {
		doc, err := reg.Query(Query{TopK: k})
		if err != nil {
			t.Fatal(err)
		}
		want := all[:min(k, len(all))]
		if len(doc.Top) != len(want) {
			t.Fatalf("k=%d: %d winners, want %d", k, len(doc.Top), len(want))
		}
		for i := range want {
			if doc.Top[i] != want[i] {
				t.Fatalf("k=%d: rank %d = %+v, want %+v", k, i, doc.Top[i], want[i])
			}
		}
	}
}

// TestIngestAllocsPerDevice bounds the per-device allocations of a durable
// ingest once its BoMs are warm: envelope decode, record, WAL frame. The
// per-BoM work (scenario decode, key, marshal, node, embodied model) must
// not run per device.
func TestIngestAllocsPerDevice(t *testing.T) {
	const size = 500
	reg := New(Config{Shards: 64})
	// Small segments keep the in-memory filesystem's copy-on-sync cheap.
	st, err := OpenStore(context.Background(), reg, StoreConfig{
		FS: vfs.NewMemFS(), SnapshotPath: testSnapPath, WALDir: testWALDir, SegmentBytes: 256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bodies := chunkBodies(t, 12, size)
	for _, body := range bodies[:2] { // warm the BoM pool and the maps
		if _, err := reg.IngestNDJSON(bytes.NewReader(body), 0); err != nil {
			t.Fatal(err)
		}
	}
	next := 2
	allocs := testing.AllocsPerRun(len(bodies)-next-1, func() {
		if _, err := reg.IngestNDJSON(bytes.NewReader(bodies[next]), 0); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if perDevice := allocs / size; perDevice > 30 {
		t.Fatalf("%.1f allocs per device, want at most 30", perDevice)
	} else {
		t.Logf("%.1f allocs per device", perDevice)
	}
}

// TestBoMTableSharesEntries: canonically equal scenarios share one entry
// whatever their wire bytes, it persists the compact form, and entries
// leave the table with their last device.
func TestBoMTableSharesEntries(t *testing.T) {
	reg := New(Config{Shards: 4})
	indented, err := scenario.Marshal(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	indented = bytes.TrimSpace(indented) // the raw form a line carries
	variant := testSpec(0)
	variant.Logic[0].Node = " 7NM "
	variant.Logic[0].Count = 1
	variant.Logic[0].Fab = &scenario.FabSpec{}
	variantJSON, err := scenario.MarshalCompact(variant)
	if err != nil {
		t.Fatal(err)
	}
	line := func(id string, spec []byte) string {
		return fmt.Sprintf(`{"id":%q,"region":"europe","deployed":"2024-01-01","scenario":%s}`+"\n", id, spec)
	}
	body := line("a", indented) + line("b", indented) + line("c", variantJSON)
	if _, err := reg.IngestNDJSON(strings.NewReader(body), 0); err != nil {
		t.Fatal(err)
	}
	if n := reg.boms.len(); n != 1 {
		t.Fatalf("%d entries for one canonical BoM", n)
	}
	e := reg.shardFor("a").recs["a"].bom
	if e.refs != 3 {
		t.Fatalf("entry refs %d, want 3", e.refs)
	}
	if bytes.Contains(e.specJSON, []byte("\n")) {
		t.Fatalf("persisted bytes are not compact: %s", e.specJSON)
	}
	for _, id := range []string{"a", "b", "c"} {
		if _, err := reg.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.boms.len(); n != 0 {
		t.Fatalf("table not drained: %d entries", n)
	}
}

// indentedSpecs rewrites every entry's persisted bytes to the indented
// scenario.Marshal form earlier writers used, so the snapshot and WAL
// frames written next carry them.
func indentedSpecs(t *testing.T, reg *Registry) {
	t.Helper()
	for _, e := range reg.boms.byKey {
		raw, err := scenario.Marshal(e.spec)
		if err != nil {
			t.Fatal(err)
		}
		e.specJSON = raw
	}
}

// capturedWAL records every appended payload.
type capturedWAL struct{ payloads [][]byte }

func (c *capturedWAL) Append(p []byte) error {
	c.payloads = append(c.payloads, append([]byte(nil), p...))
	return nil
}

// TestLoadsIndentedSpecBytes: a WAL and a snapshot whose records carry the
// indented spec bytes earlier writers persisted load to the same summaries
// as compact ones, and the next snapshot writes the compact form.
func TestLoadsIndentedSpecBytes(t *testing.T) {
	build := func(log WALAppender) *Registry {
		reg := New(Config{Shards: 8})
		reg.AttachWAL(log)
		storeFleet(t, reg, nil, 40)
		return reg
	}
	live := build(nil)
	want := summaryBytes(t, live)

	t.Run("wal", func(t *testing.T) {
		// Capture the compact frames, then append the same history with
		// the indented bytes through a real store and replay it.
		compact := &capturedWAL{}
		build(compact)
		m := vfs.NewMemFS()
		_, st := openTestStore(t, m, 0)
		for _, p := range compact.payloads {
			if err := st.w.Append(indentFrame(t, p)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		seg, _ := segmentBytes(t, m)
		if !bytes.Contains(seg, []byte("\n  \"name\"")) {
			t.Fatal("the planted WAL does not carry indented spec bytes")
		}
		reg, _ := reopen(t, m, 0)
		if got := summaryBytes(t, reg); !bytes.Equal(got, want) {
			t.Fatalf("indented WAL replays to a different summary\n got: %s\nwant: %s", got, want)
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		old := build(nil)
		var compact, indented bytes.Buffer
		if err := old.Snapshot(&compact); err != nil {
			t.Fatal(err)
		}
		indentedSpecs(t, old)
		if err := old.Snapshot(&indented); err != nil {
			t.Fatal(err)
		}
		if indented.Len() <= compact.Len() {
			t.Fatalf("indented snapshot %d bytes, compact %d", indented.Len(), compact.Len())
		}
		reg := New(Config{})
		if _, err := reg.Restore(bytes.NewReader(indented.Bytes())); err != nil {
			t.Fatal(err)
		}
		ref := New(Config{})
		if _, err := ref.Restore(bytes.NewReader(compact.Bytes())); err != nil {
			t.Fatal(err)
		}
		if got, want := summaryBytes(t, reg), summaryBytes(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("indented snapshot restores to a different summary\n got: %s\nwant: %s", got, want)
		}
		var again bytes.Buffer
		if err := reg.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), compact.Bytes()) {
			t.Fatal("re-snapshot of an indented restore is not the compact snapshot")
		}
	})
}

// indentFrame re-encodes an upsert payload with the indented spec bytes.
func indentFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	if payload[0] != opUpsert {
		return payload
	}
	boms := &bomTable{}
	boms.reset(nil)
	rec, err := decodeRecord(&reader{r: bytes.NewReader(payload[1:])}, boms)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := scenario.Marshal(rec.bom.spec)
	if err != nil {
		t.Fatal(err)
	}
	e := *rec.bom
	e.specJSON = raw
	rec.bom = &e
	return encodeUpsert(rec)
}

// TestRecordWindowIsUTC: a device deployed with an RFC 3339 offset keeps
// its instant but not its zone, so records never pin a location.
func TestRecordWindowIsUTC(t *testing.T) {
	reg := New(Config{Shards: 2})
	spec, err := scenario.Marshal(testSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	l := fmt.Sprintf(`{"id":"x","region":"europe","deployed":"2024-01-01T12:00:00+02:00","scenario":%s}`, spec)
	if _, err := reg.IngestNDJSON(strings.NewReader(l), 0); err != nil {
		t.Fatal(err)
	}
	rec := reg.shardFor("x").recs["x"]
	if rec.deployed.Location() != time.UTC || !rec.deployed.Equal(time.Date(2024, 1, 1, 10, 0, 0, 0, time.UTC)) {
		t.Fatalf("deployed = %v", rec.deployed)
	}
}
