package fleet

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"act/internal/scenario"
)

// TestConcurrentShardConsistency hammers the registry from many goroutines
// — upserts, replacements, removes, summaries, top-K and group-by queries
// all interleaving — then checks the invariant the sharding must preserve:
// the running totals equal the canonical refold of whatever device set
// survived. Run under -race this is also the locking proof.
func TestConcurrentShardConsistency(t *testing.T) {
	const (
		writers = 8
		ops     = 300
		idSpace = 64 // collisions across goroutines are the point
	)
	reg := New(Config{Shards: 16})
	regions := []string{"united-states", "europe", "india", "world"}
	wires := make([][]byte, 6)
	for i := range wires {
		var err error
		if wires[i], err = scenario.MarshalCompact(testSpec(i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				id := fmt.Sprintf("dev-%02d", (g*31+i*7)%idSpace)
				switch {
				case i%5 == 4:
					if _, err := reg.Remove(id); err != nil {
						t.Errorf("remove: %v", err)
						return
					}
				case i%5 == 2:
					// NDJSON resolves BoMs by canonical key while
					// other writers evict and rebuild the same entries.
					line := fmt.Sprintf(`{"id":%q,"region":%q,"deployed":"2024-01-01","utilization":0.5,"scenario":%s}`,
						id, regions[(g+i)%len(regions)], wires[(g+i)%6])
					if _, err := reg.IngestNDJSON(strings.NewReader(line), 0); err != nil {
						t.Errorf("ingest: %v", err)
						return
					}
				default:
					dev := testDevice(id, (g+i)%6, regions[(g+i)%len(regions)])
					dev.Utilization = 0.5
					if _, err := reg.Upsert(dev); err != nil {
						t.Errorf("upsert: %v", err)
						return
					}
				}
				if i%10 == 0 {
					doc := reg.Summary()
					if doc.Devices < 0 || doc.Devices > idSpace {
						t.Errorf("summary devices %d outside [0, %d]", doc.Devices, idSpace)
						return
					}
				}
				if i%25 == 0 {
					if _, err := reg.Query(Query{TopK: 5, GroupBy: "region"}); err != nil {
						t.Errorf("query: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	doc := reg.Summary()
	if doc.Devices != reg.Len() {
		t.Fatalf("summary devices %d != Len %d", doc.Devices, reg.Len())
	}
	top, err := reg.Query(Query{TopK: idSpace * 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Top) != doc.Devices {
		t.Fatalf("full top-K returned %d devices, summary says %d", len(top.Top), doc.Devices)
	}

	// The BoM table holds exactly the surviving devices' BoMs.
	refs := 0
	for k, e := range reg.boms.byKey {
		if e.key != k || e.refs <= 0 {
			t.Fatalf("entry %q: key %q, refs %d", k, e.key, e.refs)
		}
		refs += e.refs
	}
	if refs != reg.Len() {
		t.Fatalf("entry refs total %d, registry holds %d devices", refs, reg.Len())
	}

	// The incremental totals must agree with the canonical refold — the
	// same check a recompute performs — modulo float reassociation across
	// the interleaved history.
	before := doc
	if err := reg.Recompute(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := reg.Summary()
	if after.Devices != before.Devices || after.DistinctBoMs != before.DistinctBoMs {
		t.Fatalf("recompute changed the device set: %+v vs %+v", after, before)
	}
	for _, d := range []struct {
		name string
		a, b float64
	}{
		{"embodied", before.EmbodiedTotalG, after.EmbodiedTotalG},
		{"share", before.EmbodiedShareG, after.EmbodiedShareG},
		{"operational", before.OperationalG, after.OperationalG},
	} {
		if diff := d.a - d.b; diff > 1e-6*d.b || diff < -1e-6*d.b {
			t.Fatalf("%s drifted from the canonical fold: %v vs %v", d.name, d.a, d.b)
		}
	}
}

// TestConcurrentWithSnapshot interleaves writers with snapshot/restore
// cycles: every snapshot must be internally consistent (it restores
// cleanly and re-snapshots byte-identically) no matter when it was cut.
func TestConcurrentWithSnapshot(t *testing.T) {
	reg := New(Config{Shards: 8})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				dev := testDevice(fmt.Sprintf("dev-%d-%d", g, i%32), i%4, "united-states")
				if _, err := reg.Upsert(dev); err != nil {
					t.Errorf("upsert: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		var snap bytes.Buffer
		if err := reg.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		restored := New(Config{Shards: 8})
		if _, err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatalf("snapshot %d does not restore: %v", i, err)
		}
		var again bytes.Buffer
		if err := restored.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap.Bytes(), again.Bytes()) {
			t.Fatalf("snapshot %d not stable through restore", i)
		}
	}
	close(stop)
	wg.Wait()
}
