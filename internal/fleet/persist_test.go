package fleet

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"act/internal/report"
	"act/internal/units"
	"act/internal/vfs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenFleet is a fixed 50-device fleet across regions, BoMs, windows and
// utilizations — the persistence suite's shared fixture.
func goldenFleet(t *testing.T) *Registry {
	t.Helper()
	reg := New(Config{Shards: 8})
	regions := []string{"united-states", "europe", "india", "world", "brazil"}
	for i := 0; i < 50; i++ {
		dev := testDevice(fmt.Sprintf("dev-%02d", i), i%7, regions[i%len(regions)])
		dev.Retired = testEpoch.Add(units.Years(0.5 + float64(i%6)))
		dev.Utilization = 0.2 + 0.15*float64(i%5)
		if _, err := reg.Upsert(dev); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func summaryBytes(t *testing.T, reg *Registry) []byte {
	t.Helper()
	doc, err := reg.Query(Query{TopK: 5, GroupBy: "region"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.Encode(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRoundTrip is the persistence acceptance check: snapshot →
// restore into a fresh registry → snapshot again must be byte-identical,
// and the restored registry must answer the summary with the exact bytes
// the original produced.
func TestSnapshotRoundTrip(t *testing.T) {
	reg := goldenFleet(t)
	var snap1 bytes.Buffer
	if err := reg.Snapshot(&snap1); err != nil {
		t.Fatal(err)
	}

	// Restore adopts the snapshot's shard count even when built differently.
	reg2 := New(Config{Shards: 3})
	stale, err := reg2.Restore(bytes.NewReader(snap1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stale {
		t.Fatal("same-binary snapshot reported stale")
	}
	if reg2.Len() != reg.Len() {
		t.Fatalf("restored Len = %d, want %d", reg2.Len(), reg.Len())
	}

	var snap2 bytes.Buffer
	if err := reg2.Snapshot(&snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
		t.Fatal("snapshot → restore → snapshot is not byte-identical")
	}
	if a, b := summaryBytes(t, reg), summaryBytes(t, reg2); !bytes.Equal(a, b) {
		t.Fatalf("restored summary differs:\n%s\nwant:\n%s", b, a)
	}
}

// TestRestoreRebuildsClassGroups checks that the class dimension — derived
// from the scenario name, never persisted — is rebuilt on restore: the
// same groups, with the same device counts and totals close to the live
// fold (the rebuild folds in sorted-record order, so the sums may differ
// in the last ulp).
func TestRestoreRebuildsClassGroups(t *testing.T) {
	reg := goldenFleet(t)
	var snap bytes.Buffer
	if err := reg.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	reg2 := New(Config{Shards: 2})
	if _, err := reg2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}

	live, err := reg.Query(Query{GroupBy: "class"})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := reg2.Query(Query{GroupBy: "class"})
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Groups) == 0 {
		t.Fatal("fixture fleet produced no class groups")
	}
	if len(restored.Groups) != len(live.Groups) {
		t.Fatalf("restored class groups = %d, want %d", len(restored.Groups), len(live.Groups))
	}
	for i, g := range live.Groups {
		r := restored.Groups[i]
		if r.Key != g.Key || r.Devices != g.Devices {
			t.Fatalf("group %d: got %q/%d devices, want %q/%d", i, r.Key, r.Devices, g.Key, g.Devices)
		}
		if !closeEnough(r.TotalG, g.TotalG) {
			t.Fatalf("group %q: restored total %v, want %v", g.Key, r.TotalG, g.TotalG)
		}
	}
}

// closeEnough tolerates last-ulp drift from fold-order differences.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return diff <= 1e-9*(abs(a)+abs(b))
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestSummaryGolden pins the full summary document (totals, groups, top
// emitters) for the fixed fleet against a committed golden file, so an
// accidental change to the aggregation math or the document encoding
// shows up as a diff.
func TestSummaryGolden(t *testing.T) {
	got := summaryBytes(t, goldenFleet(t))
	path := filepath.Join("testdata", "summary.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("summary differs from golden:\n%s\nwant:\n%s", got, want)
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	reg := goldenFleet(t)
	var snap bytes.Buffer
	if err := reg.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	data := snap.Bytes()

	t.Run("flipped byte", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[len(bad)/2] ^= 0x40
		if _, err := New(Config{}).Restore(bytes.NewReader(bad)); err == nil {
			t.Fatal("corrupted snapshot restored")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := New(Config{}).Restore(bytes.NewReader(data[:len(data)-9])); err == nil {
			t.Fatal("truncated snapshot restored")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[0] = 'X'
		if _, err := New(Config{}).Restore(bytes.NewReader(bad)); err == nil {
			t.Fatal("wrong magic restored")
		}
	})
}

// walScript drives a registry through a mixed history — creates, replaces,
// removes — while every operation logs to w.
func walScript(t *testing.T, reg *Registry) {
	t.Helper()
	regions := []string{"united-states", "europe", "india"}
	for i := 0; i < 30; i++ {
		dev := testDevice(fmt.Sprintf("dev-%02d", i), i%5, regions[i%3])
		dev.Utilization = 0.5
		if _, err := reg.Upsert(dev); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i += 2 { // replace a few with a different BoM
		if _, err := reg.Upsert(testDevice(fmt.Sprintf("dev-%02d", i), 7, "world")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 20; i < 25; i++ {
		if _, err := reg.Remove(fmt.Sprintf("dev-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALReplay: the write-ahead history alone — inserts, replacements
// and removes across several segments, no snapshot — reopens onto the
// in-memory state byte-identically.
func TestWALReplay(t *testing.T) {
	m := vfs.NewMemFS()
	reg, st := openTestStore(t, m, 1024)
	oracle := New(Config{Shards: 8})
	walScript(t, reg)
	walScript(t, oracle)
	if n := st.WALSegments(); n < 2 {
		t.Fatalf("want a multi-segment history at 1KiB rotation, got %d segments", n)
	}

	reg2, _ := reopen(t, m, 1024)
	if a, b := summaryBytes(t, oracle), summaryBytes(t, reg2); !bytes.Equal(a, b) {
		t.Fatalf("replayed summary differs:\n%s\nwant:\n%s", b, a)
	}
	if reg2.Len() != oracle.Len() {
		t.Fatalf("replayed %d devices, want %d", reg2.Len(), oracle.Len())
	}
}

// segmentBytes returns the raw bytes of the store's single WAL segment
// and its sequence number.
func segmentBytes(t *testing.T, m *vfs.MemFS) ([]byte, uint64) {
	t.Helper()
	names, err := m.ReadDir(testWALDir)
	if err != nil || len(names) != 1 {
		t.Fatalf("want one segment, got %v (%v)", names, err)
	}
	seq, _ := parseSegName(names[0])
	f, err := m.Open(testWALDir + "/" + names[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return raw, seq
}

// twoFrameSegment logs two upserts and returns the segment bytes, its
// sequence number and the length of the header plus the first frame.
func twoFrameSegment(t *testing.T) (raw []byte, seq uint64, firstEnd int) {
	t.Helper()
	m := vfs.NewMemFS()
	reg, _ := openTestStore(t, m, 1<<20)
	if _, err := reg.Upsert(testDevice("a", 0, "united-states")); err != nil {
		t.Fatal(err)
	}
	first, _ := segmentBytes(t, m)
	if _, err := reg.Upsert(testDevice("b", 1, "europe")); err != nil {
		t.Fatal(err)
	}
	raw, seq = segmentBytes(t, m)
	return raw, seq, len(first)
}

// TestWALTornTail: a frame cut short by a crash mid-append is a torn
// tail, not corruption. Segment replay applies every complete frame and
// reports the length just past the last good one.
func TestWALTornTail(t *testing.T) {
	raw, seq, good := twoFrameSegment(t)
	torn := raw[:good+(len(raw)-good)/2]

	reg := New(Config{Shards: 4})
	res, err := reg.replaySegment(context.Background(), bytes.NewReader(torn), seq, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.corrupt != nil {
		t.Fatalf("torn tail classified as corruption: %v", res.corrupt)
	}
	if res.applied != 1 || res.validLen != int64(good) {
		t.Fatalf("applied=%d validLen=%d, want 1 and %d (the last complete frame)", res.applied, res.validLen, good)
	}
	if reg.Len() != 1 {
		t.Fatalf("Len after torn replay = %d, want 1", reg.Len())
	}
}

// TestWALRejectsMidStreamCorruption: a complete frame that fails its
// checksum is corruption, reported by the validating scan before any
// frame is applied.
func TestWALRejectsMidStreamCorruption(t *testing.T) {
	raw, seq, firstEnd := twoFrameSegment(t)
	bad := bytes.Clone(raw)
	bad[(segHeaderLen+firstEnd)/2] ^= 0x01 // inside the first frame

	reg := New(Config{Shards: 4})
	res, err := reg.replaySegment(context.Background(), bytes.NewReader(bad), seq, false)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.corrupt, errCorruptFrame) {
		t.Fatalf("corrupt = %v, want errCorruptFrame", res.corrupt)
	}
	if reg.Len() != 0 {
		t.Fatal("the validating scan applied a frame")
	}
}

// TestRecomputeEquivalence: recomputation refolds each shard in sorted id
// order, so its totals are byte-identical to a registry built by upserting
// the same devices in sorted order.
func TestRecomputeEquivalence(t *testing.T) {
	reg := New(Config{Shards: 8})
	// Insertion order deliberately scrambled.
	var devs []Device
	regions := []string{"united-states", "europe", "india"}
	for i := 0; i < 40; i++ {
		dev := testDevice(fmt.Sprintf("dev-%02d", (i*17)%40), ((i*17)%40)%6, regions[i%3])
		dev.Utilization = 0.7
		devs = append(devs, dev)
	}
	for _, d := range devs {
		if _, err := reg.Upsert(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Recompute(context.Background()); err != nil {
		t.Fatal(err)
	}

	sorted := New(Config{Shards: 8})
	ordered := append([]Device(nil), devs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	for _, d := range ordered {
		if _, err := sorted.Upsert(d); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := summaryBytes(t, sorted), summaryBytes(t, reg); !bytes.Equal(a, b) {
		t.Fatalf("recomputed summary differs from the sorted fold:\n%s\nwant:\n%s", b, a)
	}
}

// TestRecomputeFailureLeavesStateIntact: a resolver failure mid-recompute
// must not tear the registry — the staged shards are discarded whole.
func TestRecomputeFailureLeavesStateIntact(t *testing.T) {
	fail := false
	resolver := func(region string) (units.CarbonIntensity, error) {
		if fail {
			return 0, fmt.Errorf("resolver offline")
		}
		return StaticRegions()(region)
	}
	reg := New(Config{Shards: 4, Resolver: resolver})
	for i := 0; i < 10; i++ {
		if _, err := reg.Upsert(testDevice(fmt.Sprintf("dev-%d", i), i%3, "united-states")); err != nil {
			t.Fatal(err)
		}
	}
	before := summaryBytes(t, reg)

	fail = true
	if err := reg.Recompute(context.Background()); err == nil {
		t.Fatal("recompute with a failing resolver succeeded")
	}
	fail = false
	if after := summaryBytes(t, reg); !bytes.Equal(before, after) {
		t.Fatalf("failed recompute changed state:\n%s\nwant:\n%s", after, before)
	}
}

// TestWALRecomputeMarker: a logged recompute replays as a recompute, so
// a log written before a model-table change reproduces the repriced
// state. The history is written under one resolver and replayed under
// another: the upserts apply verbatim, and only the recompute marker can
// reprice them.
func TestWALRecomputeMarker(t *testing.T) {
	doubled := func(region string) (units.CarbonIntensity, error) {
		ci, err := StaticRegions()(region)
		return 2 * ci, err
	}
	open := func(m *vfs.MemFS, resolver IntensityResolver) (*Registry, *Store) {
		reg := New(Config{Shards: 4, Resolver: resolver})
		st, err := OpenStore(context.Background(), reg, StoreConfig{
			FS: m, SnapshotPath: testSnapPath, WALDir: testWALDir, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reg, st
	}
	upsertTen := func(reg *Registry) {
		for i := 0; i < 10; i++ {
			if _, err := reg.Upsert(testDevice(fmt.Sprintf("dev-%d", i), i%3, "europe")); err != nil {
				t.Fatal(err)
			}
		}
	}

	m := vfs.NewMemFS()
	reg, _ := open(m, nil)
	upsertTen(reg)
	if err := reg.Recompute(context.Background()); err != nil {
		t.Fatal(err)
	}
	stalePriced := summaryBytes(t, reg)

	m.Crash()
	reg2, _ := open(m, doubled)
	oracle := New(Config{Shards: 4, Resolver: doubled})
	upsertTen(oracle)
	if err := oracle.Recompute(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := summaryBytes(t, oracle)
	if bytes.Equal(want, stalePriced) {
		t.Fatal("the two resolvers price identically; the test cannot tell a replayed recompute")
	}
	if got := summaryBytes(t, reg2); !bytes.Equal(got, want) {
		t.Fatalf("replayed summary differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpoint: the snapshot a checkpoint writes plus the segments
// after it reproduce the state, and the snapshot envelope carries the
// flags byte older binaries expect.
func TestCheckpoint(t *testing.T) {
	m := vfs.NewMemFS()
	reg, st := openTestStore(t, m, 1<<20)
	walScript(t, reg)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations land only in the fresh segment.
	if _, err := reg.Upsert(testDevice("late", 9, "india")); err != nil {
		t.Fatal(err)
	}
	if st.Floor() == 0 || st.WALSegments() != 1 {
		t.Fatalf("floor=%d segments=%d, want a nonzero floor and one live segment", st.Floor(), st.WALSegments())
	}

	f, err := m.Open(testSnapPath)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, len(envMagic)+4+8+1)
	_, err = io.ReadFull(f, hdr)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if flags := hdr[len(hdr)-1]; flags != envFlags {
		t.Fatalf("snapshot envelope flags = %#x, want %#x", flags, envFlags)
	}

	reg2, _ := reopen(t, m, 1<<20)
	if a, b := summaryBytes(t, reg), summaryBytes(t, reg2); !bytes.Equal(a, b) {
		t.Fatalf("snapshot+wal summary differs:\n%s\nwant:\n%s", b, a)
	}
}
