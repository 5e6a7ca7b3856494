package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"act/internal/units"
	"act/internal/vfs"
)

const (
	testSnapPath = "data/fleet.snap"
	testWALDir   = "data/wal"
)

func openTestStore(t *testing.T, m *vfs.MemFS, segBytes int64) (*Registry, *Store) {
	t.Helper()
	reg := New(Config{Shards: 8})
	st, err := OpenStore(context.Background(), reg, StoreConfig{
		FS:           m,
		SnapshotPath: testSnapPath,
		WALDir:       testWALDir,
		SegmentBytes: segBytes,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return reg, st
}

// storeFleet upserts n golden-style devices through the store-backed
// registry and mirrors them into oracle (when non-nil).
func storeFleet(t testing.TB, reg, oracle *Registry, n int) {
	t.Helper()
	regions := []string{"united-states", "europe", "india", "world", "brazil"}
	for i := 0; i < n; i++ {
		dev := testDevice(fmt.Sprintf("dev-%02d", i), i%5, regions[i%len(regions)])
		dev.Retired = testEpoch.Add(units.Years(0.5 + float64(i%6)))
		dev.Utilization = 0.2 + 0.15*float64(i%5)
		if _, err := reg.Upsert(dev); err != nil {
			t.Fatalf("upsert %d: %v", i, err)
		}
		if oracle != nil {
			if _, err := oracle.Upsert(dev); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func reopen(t *testing.T, m *vfs.MemFS, segBytes int64) (*Registry, *Store) {
	t.Helper()
	m.Crash()
	return openTestStore(t, m, segBytes)
}

// The basic durability loop: ingest through the store, crash, reopen —
// the recovered registry answers the summary byte-identically.
func TestStoreCrashReopenByteIdentical(t *testing.T) {
	m := vfs.NewMemFS()
	reg, _ := openTestStore(t, m, 2048)
	oracle := New(Config{Shards: 8})
	storeFleet(t, reg, oracle, 30)
	want := summaryBytes(t, oracle)
	if got := summaryBytes(t, reg); !bytes.Equal(got, want) {
		t.Fatal("live store-backed summary diverged from oracle")
	}

	reg2, st2 := reopen(t, m, 2048)
	if got := summaryBytes(t, reg2); !bytes.Equal(got, want) {
		t.Fatal("recovered summary not byte-identical to oracle")
	}
	if st2.WALSegments() == 0 {
		t.Fatal("no live segments after recovery")
	}
}

// Rotation splits the log into several segments; checkpoint compacts
// them away and recovery from the compacted state is byte-identical.
func TestStoreRotationAndCheckpoint(t *testing.T) {
	m := vfs.NewMemFS()
	reg, st := openTestStore(t, m, 1024)
	storeFleet(t, reg, nil, 40)
	if n := st.WALSegments(); n < 3 {
		t.Fatalf("expected several segments at 1KiB rotation, got %d", n)
	}
	want := summaryBytes(t, reg)

	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if n := st.WALSegments(); n != 1 {
		t.Fatalf("segments after checkpoint = %d, want 1 (fresh active)", n)
	}
	names, err := m.ReadDir(testWALDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("wal dir after checkpoint: %v, want exactly the active segment", names)
	}

	reg2, _ := reopen(t, m, 1024)
	if got := summaryBytes(t, reg2); !bytes.Equal(got, want) {
		t.Fatal("post-checkpoint recovery not byte-identical")
	}

	// And ingest continues cleanly after a checkpoint + recovery.
	if _, err := reg2.Upsert(testDevice("late", 1, "europe")); err != nil {
		t.Fatal(err)
	}
	reg3, _ := reopen(t, m, 1024)
	if got, want := summaryBytes(t, reg3), summaryBytes(t, reg2); !bytes.Equal(got, want) {
		t.Fatal("recovery after post-checkpoint ingest diverged")
	}
}

// corruptSegmentByte flips one byte in the middle of the named segment.
func corruptSegmentByte(t *testing.T, m *vfs.MemFS, name string) {
	t.Helper()
	f, err := m.OpenRW(testWALDir + "/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(len(raw) / 2)
	if off < segHeaderLen {
		t.Fatalf("segment %s too small to corrupt mid-frame", name)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{raw[off] ^ 0xff}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
}

// A corrupt mid-history segment quarantines itself and cascades to every
// later segment: the store reopens with the prefix state, the corrupt
// bytes preserved aside, and the quarantine counter advanced.
func TestStoreQuarantineCascade(t *testing.T) {
	m := vfs.NewMemFS()
	reg, _ := openTestStore(t, m, 1024)
	storeFleet(t, reg, nil, 40)

	names, err := m.ReadDir(testWALDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("need ≥3 segments, got %v", names)
	}
	victim := names[1] // sealed, mid-history
	corruptSegmentByte(t, m, victim)

	m.Crash()
	reg2 := New(Config{Shards: 8})
	var quarantined []string
	st2, err := OpenStore(context.Background(), reg2, StoreConfig{
		FS: m, SnapshotPath: testSnapPath, WALDir: testWALDir, SegmentBytes: 1024,
		Logf:         t.Logf,
		OnQuarantine: func(name, reason string) { quarantined = append(quarantined, name) },
	})
	if err != nil {
		t.Fatalf("OpenStore with corrupt segment: %v", err)
	}
	wantQ := int64(len(names) - 1) // victim plus everything after it
	if got := st2.QuarantinedTotal(); got != wantQ {
		t.Fatalf("QuarantinedTotal = %d, want %d (cascade)", got, wantQ)
	}
	if len(quarantined) != int(wantQ) || quarantined[0] != victim {
		t.Fatalf("OnQuarantine calls %v, want first = %s", quarantined, victim)
	}
	// Quarantined bytes are preserved, not deleted.
	for _, name := range quarantined {
		if _, err := m.Stat(testWALDir + "/" + name + ".quarantine"); err != nil {
			t.Fatalf("quarantined segment %s not preserved: %v", name, err)
		}
	}
	// The recovered prefix state is a valid fleet and the store is
	// writable (fresh active segment past the quarantined range).
	if reg2.Len() == 0 {
		t.Fatal("no prefix state recovered")
	}
	if _, err := reg2.Upsert(testDevice("post-quarantine", 1, "world")); err != nil {
		t.Fatalf("upsert after quarantine recovery: %v", err)
	}
	// A second crash+reopen must not resurrect the quarantined segments.
	reg3, st3 := reopen(t, m, 1024)
	if st3.QuarantinedTotal() != 0 {
		t.Fatalf("re-quarantined on second open: %d", st3.QuarantinedTotal())
	}
	if got, want := summaryBytes(t, reg3), summaryBytes(t, reg2); !bytes.Equal(got, want) {
		t.Fatal("second recovery diverged from first")
	}
}

// A torn tail on the active segment is not corruption: the valid prefix
// is adopted and appends continue into the same file.
func TestStoreTornActiveTailAdopted(t *testing.T) {
	m := vfs.NewMemFS()
	m.SetTornSeed(7)
	reg, _ := openTestStore(t, m, 1<<20)
	storeFleet(t, reg, nil, 10)

	// Append unsynced garbage to the active segment — a torn frame.
	names, _ := m.ReadDir(testWALDir)
	if len(names) != 1 {
		t.Fatalf("want a single active segment, got %v", names)
	}
	f, err := m.OpenRW(testWALDir + "/" + names[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9}); err != nil { // no Sync: torn on crash
		t.Fatal(err)
	}
	want := summaryBytes(t, reg)

	reg2, st2 := reopen(t, m, 1<<20)
	if st2.QuarantinedTotal() != 0 {
		t.Fatalf("torn tail was quarantined: %d", st2.QuarantinedTotal())
	}
	if got := summaryBytes(t, reg2); !bytes.Equal(got, want) {
		t.Fatal("torn-tail recovery not byte-identical")
	}
	if _, err := reg2.Upsert(testDevice("after-torn", 2, "india")); err != nil {
		t.Fatalf("append after torn-tail adoption: %v", err)
	}
}

// ENOSPC in the middle of a checkpoint must leave the previous snapshot
// and the full WAL as the durable truth: the tmp+rename dance never
// exposes a partial snapshot, the store stays healthy and writable.
func TestStoreENOSPCMidCheckpoint(t *testing.T) {
	m := vfs.NewMemFS()
	reg, st := openTestStore(t, m, 4096)
	storeFleet(t, reg, nil, 20)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err) // baseline snapshot
	}
	storeFleet(t, reg, nil, 30) // more state, lives only in the WAL
	want := summaryBytes(t, reg)

	// Budget: just enough to start the snapshot, not to finish it.
	m.SetDiskCap(m.Used() + 200)
	err := st.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint succeeded under ENOSPC")
	}
	if !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("checkpoint error = %v, want ErrNoSpace in the chain", err)
	}
	if degraded, _ := st.Degraded(); degraded {
		t.Fatal("a failed checkpoint must not degrade the store")
	}
	if _, err := m.Stat(testSnapPath + ".tmp"); err == nil {
		t.Fatal("partial snapshot tmp file left behind")
	}
	m.SetDiskCap(0)

	// The store keeps serving and accepting writes.
	if got := summaryBytes(t, reg); !bytes.Equal(got, want) {
		t.Fatal("summary changed across failed checkpoint")
	}
	// Crash now: previous snapshot + WAL are the truth.
	reg2, st2 := reopen(t, m, 4096)
	if got := summaryBytes(t, reg2); !bytes.Equal(got, want) {
		t.Fatal("recovery after failed checkpoint lost state")
	}
	// And a retried checkpoint completes.
	if err := st2.Checkpoint(); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
}

// A failed fsync on the WAL append path rejects the write, leaves the
// registry unchanged, flips the store into degraded mode, and a Probe
// brings it back — the regression test for the once-ignored Sync errors.
func TestStoreFsyncFailureDegradesAndProbes(t *testing.T) {
	m := vfs.NewMemFS()
	reg, st := openTestStore(t, m, 1<<20)
	storeFleet(t, reg, nil, 5)
	want := summaryBytes(t, reg)
	lenBefore := reg.Len()

	m.FailSyncs(1)
	_, err := reg.Upsert(testDevice("doomed", 1, "world"))
	if err == nil {
		t.Fatal("upsert succeeded with a failed fsync")
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("upsert error = %v, want ErrDegraded in the chain", err)
	}
	if reg.Len() != lenBefore {
		t.Fatalf("failed upsert mutated the registry: %d -> %d", lenBefore, reg.Len())
	}
	if got := summaryBytes(t, reg); !bytes.Equal(got, want) {
		t.Fatal("failed upsert changed the summary")
	}
	if degraded, reason := st.Degraded(); !degraded || reason == "" {
		t.Fatalf("store not degraded after fsync failure (degraded=%v reason=%q)", degraded, reason)
	}
	// Degraded mode fails fast, not flakily.
	if _, err := reg.Upsert(testDevice("still-doomed", 1, "world")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second upsert error = %v, want ErrDegraded", err)
	}

	if err := st.Probe(); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if degraded, _ := st.Degraded(); degraded {
		t.Fatal("still degraded after successful probe")
	}
	if _, err := reg.Upsert(testDevice("revived", 1, "world")); err != nil {
		t.Fatalf("upsert after probe: %v", err)
	}
	// Everything acknowledged survives a crash.
	reg2, _ := reopen(t, m, 1<<20)
	if got, wantNow := summaryBytes(t, reg2), summaryBytes(t, reg); !bytes.Equal(got, wantNow) {
		t.Fatal("recovery after degrade/probe cycle diverged")
	}
}

// ENOSPC on the append path degrades the store; lifting the cap and
// probing restores service — the serve-layer degraded e2e's fleet half.
func TestStoreENOSPCDegradeRecover(t *testing.T) {
	m := vfs.NewMemFS()
	reg, st := openTestStore(t, m, 1<<20)
	storeFleet(t, reg, nil, 5)

	m.SetDiskCap(m.Used() + 10) // next frame cannot fit
	if _, err := reg.Upsert(testDevice("nospace", 2, "india")); err == nil {
		t.Fatal("upsert succeeded past the disk cap")
	}
	if degraded, _ := st.Degraded(); !degraded {
		t.Fatal("store not degraded after ENOSPC")
	}
	m.SetDiskCap(0)
	if err := st.Probe(); err != nil {
		t.Fatalf("probe after space returned: %v", err)
	}
	if _, err := reg.Upsert(testDevice("recovered", 2, "india")); err != nil {
		t.Fatalf("upsert after recovery: %v", err)
	}
	reg2, _ := reopen(t, m, 1<<20)
	if got, want := summaryBytes(t, reg2), summaryBytes(t, reg); !bytes.Equal(got, want) {
		t.Fatal("recovery after ENOSPC cycle diverged")
	}
}

// Compaction races live ingest: checkpoints loop while writers upsert
// and remove. Run with -race; the final recovered state must match the
// live registry byte for byte.
func TestStoreCheckpointConcurrentIngest(t *testing.T) {
	m := vfs.NewMemFS()
	reg, st := openTestStore(t, m, 2048)

	const writers, perWriter = 4, 60
	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			regions := []string{"united-states", "europe", "india", "world"}
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-dev-%02d", wtr, i%20)
				if i%7 == 3 {
					if _, err := reg.Remove(id); err != nil {
						t.Errorf("remove: %v", err)
						return
					}
					continue
				}
				dev := testDevice(id, (wtr+i)%5, regions[i%len(regions)])
				if _, err := reg.Upsert(dev); err != nil {
					t.Errorf("upsert: %v", err)
					return
				}
			}
		}(wtr)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 15; i++ {
			if err := st.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if t.Failed() {
		return
	}

	want := summaryBytes(t, reg)
	reg2, _ := reopen(t, m, 2048)
	if got := summaryBytes(t, reg2); !bytes.Equal(got, want) {
		t.Fatal("recovery after concurrent checkpoint/ingest diverged")
	}
}

// A corrupt snapshot refuses to open: wrong totals must never boot.
func TestStoreCorruptSnapshotFatal(t *testing.T) {
	m := vfs.NewMemFS()
	reg, st := openTestStore(t, m, 4096)
	storeFleet(t, reg, nil, 10)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f, err := m.OpenRW(testSnapPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(64, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	m.Crash()
	_, err = OpenStore(context.Background(), New(Config{Shards: 8}), StoreConfig{
		FS: m, SnapshotPath: testSnapPath, WALDir: testWALDir, SegmentBytes: 4096,
	})
	if err == nil {
		t.Fatal("corrupt snapshot opened")
	}
	if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "restore") {
		t.Fatalf("unexpected error shape: %v", err)
	}
}
