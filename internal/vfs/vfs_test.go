package vfs

import (
	"errors"
	"io"
	"io/fs"
	"testing"
)

func writeFile(t *testing.T, m *MemFS, name, content string, sync, syncDir bool) {
	t.Helper()
	f, err := m.Create(name)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	if _, err := f.Write([]byte(content)); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatalf("sync %s: %v", name, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", name, err)
	}
	if syncDir {
		if err := m.SyncDir("dir"); err != nil {
			t.Fatalf("syncdir: %v", err)
		}
	}
}

func readFile(t *testing.T, m *MemFS, name string) (string, bool) {
	t.Helper()
	f, err := m.Open(name)
	if errors.Is(err, fs.ErrNotExist) {
		return "", false
	}
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	_ = f.Close()
	return string(b), true
}

// A file whose content was fsynced but whose directory entry was not
// vanishes in a crash; with the directory synced it survives in full.
func TestMemFSDurabilityRequiresDirSync(t *testing.T) {
	m := NewMemFS()
	writeFile(t, m, "dir/synced", "hello", true, true)
	writeFile(t, m, "dir/nodirsync", "gone", true, false)
	m.Crash()
	if got, ok := readFile(t, m, "dir/synced"); !ok || got != "hello" {
		t.Fatalf("synced file after crash: %q ok=%v, want hello", got, ok)
	}
	if _, ok := readFile(t, m, "dir/nodirsync"); ok {
		t.Fatalf("file without dir sync survived the crash")
	}
}

// Unsynced content reverts to the last synced bytes plus a torn prefix of
// the unsynced tail — never more, never unrelated bytes.
func TestMemFSTornTail(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		m := NewMemFS()
		m.SetTornSeed(seed)
		f, err := m.Create("dir/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("durable|")); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := m.SyncDir("dir"); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("volatile")); err != nil {
			t.Fatal(err)
		}
		m.Crash()
		got, ok := readFile(t, m, "dir/f")
		if !ok {
			t.Fatalf("seed %d: file lost", seed)
		}
		want := "durable|volatile"
		if len(got) < len("durable|") || len(got) > len(want) || got != want[:len(got)] {
			t.Fatalf("seed %d: recovered %q, want a prefix of %q no shorter than the synced part", seed, got, want)
		}
	}
}

// The same seed and op sequence recover the same bytes: the crash model is
// deterministic, which is what makes the crash harness debuggable.
func TestMemFSTornTailDeterministic(t *testing.T) {
	run := func() string {
		m := NewMemFS()
		m.SetTornSeed(42)
		writeFile(t, m, "dir/f", "base", true, true)
		f, _ := m.OpenRW("dir/f")
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("tailtailtail")); err != nil {
			t.Fatal(err)
		}
		m.Crash()
		got, _ := readFile(t, m, "dir/f")
		return got
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %q vs %q", a, b)
	}
}

// Rename is volatile until SyncDir: a crash undoes an unsynced rename but
// preserves a synced one.
func TestMemFSRenameDurability(t *testing.T) {
	m := NewMemFS()
	writeFile(t, m, "dir/a", "one", true, true)
	if err := m.Rename("dir/a", "dir/b"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, ok := readFile(t, m, "dir/b"); ok {
		t.Fatalf("unsynced rename survived the crash")
	}
	if got, ok := readFile(t, m, "dir/a"); !ok || got != "one" {
		t.Fatalf("original name not recovered: %q ok=%v", got, ok)
	}

	if err := m.Rename("dir/a", "dir/b"); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("dir"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, ok := readFile(t, m, "dir/a"); ok {
		t.Fatalf("old name reappeared after synced rename")
	}
	if got, ok := readFile(t, m, "dir/b"); !ok || got != "one" {
		t.Fatalf("synced rename lost: %q ok=%v", got, ok)
	}
}

// Remove without SyncDir resurrects the file on crash; with SyncDir it
// stays gone.
func TestMemFSRemoveDurability(t *testing.T) {
	m := NewMemFS()
	writeFile(t, m, "dir/f", "x", true, true)
	if err := m.Remove("dir/f"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, ok := readFile(t, m, "dir/f"); !ok {
		t.Fatalf("unsynced remove stuck after crash")
	}
	if err := m.Remove("dir/f"); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("dir"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, ok := readFile(t, m, "dir/f"); ok {
		t.Fatalf("synced remove did not survive crash")
	}
}

// SetCrashAfter stops the world at the k-th mutating op: that op fails,
// everything after fails, and Crash() brings the filesystem back.
func TestMemFSCrashAfter(t *testing.T) {
	m := NewMemFS()
	m.SetCrashAfter(2)
	f, err := m.Create("dir/f") // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) { // op 2: boom
		t.Fatalf("write at crash point: %v, want ErrCrashed", err)
	}
	if _, err := m.Create("dir/g"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op after crash: %v, want ErrCrashed", err)
	}
	if !m.Down() {
		t.Fatalf("filesystem should be down")
	}
	m.Crash()
	if m.Down() {
		t.Fatalf("filesystem should be back up after Crash()")
	}
	if _, err := m.Create("dir/g"); err != nil {
		t.Fatalf("create after recovery: %v", err)
	}
}

// DiskCap: writes beyond the budget apply a short write and return
// ErrNoSpace; freeing space makes writes work again.
func TestMemFSDiskCap(t *testing.T) {
	m := NewMemFS()
	m.SetDiskCap(10)
	f, err := m.Create("dir/f")
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write(make([]byte, 16))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-budget write: %v, want ErrNoSpace", err)
	}
	if n != 10 {
		t.Fatalf("short write wrote %d, want 10", n)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatalf("write after freeing space: %v", err)
	}
	m.SetDiskCap(0)
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatalf("write after lifting cap: %v", err)
	}
}

// FailSyncs fails exactly n durability barriers, then syncs work again —
// and a failed sync leaves the previous durable content intact.
func TestMemFSFailSyncs(t *testing.T) {
	m := NewMemFS()
	writeFile(t, m, "dir/f", "old", true, true)
	f, err := m.OpenRW("dir/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	m.FailSyncs(1)
	if err := f.Sync(); !errors.Is(err, ErrInjectedSyncFailure) {
		t.Fatalf("sync: %v, want ErrInjectedSyncFailure", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	m.Crash()
	if got, _ := readFile(t, m, "dir/f"); got != "new" {
		t.Fatalf("after retry sync: %q, want new", got)
	}
}

// Ops counts mutating operations only, so a crash-at-every-op loop over a
// fixed trace visits a stable set of crash points.
func TestMemFSOpsCountStable(t *testing.T) {
	trace := func(m *MemFS) {
		writeFile(t, m, "dir/a", "1", true, true)
		writeFile(t, m, "dir/b", "2", true, true)
		_ = m.Rename("dir/a", "dir/c")
		_ = m.SyncDir("dir")
	}
	a, b := NewMemFS(), NewMemFS()
	trace(a)
	trace(b)
	if a.Ops() == 0 || a.Ops() != b.Ops() {
		t.Fatalf("op counts unstable: %d vs %d", a.Ops(), b.Ops())
	}
	before := a.Ops()
	if _, ok := readFile(t, a, "dir/c"); !ok {
		t.Fatal("renamed file missing")
	}
	if _, err := a.Stat("dir/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadDir("dir"); err != nil {
		t.Fatal(err)
	}
	if a.Ops() != before {
		t.Fatalf("reads counted as mutations: %d -> %d", before, a.Ops())
	}
}

// Stat distinguishes files from directories.
func TestMemFSStat(t *testing.T) {
	m := NewMemFS()
	writeFile(t, m, "dir/f", "abc", true, true)
	fi, err := m.Stat("dir/f")
	if err != nil || fi.IsDir || fi.Size != 3 {
		t.Fatalf("stat file: %+v err=%v", fi, err)
	}
	fi, err = m.Stat("dir")
	if err != nil || !fi.IsDir {
		t.Fatalf("stat implicit dir: %+v err=%v", fi, err)
	}
	if err := m.MkdirAll("made/deep"); err != nil {
		t.Fatal(err)
	}
	fi, err = m.Stat("made/deep")
	if err != nil || !fi.IsDir {
		t.Fatalf("stat mkdir'd dir: %+v err=%v", fi, err)
	}
	if _, err := m.Stat("nope"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stat missing: %v, want not-exist", err)
	}
}

// ReadDir lists only the directory's own files, sorted.
func TestMemFSReadDir(t *testing.T) {
	m := NewMemFS()
	writeFile(t, m, "dir/b", "", false, false)
	writeFile(t, m, "dir/a", "", false, false)
	writeFile(t, m, "other/c", "", false, false)
	names, err := m.ReadDir("dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("ReadDir: %v, want [a b]", names)
	}
}

// The crashing write itself may tear: with the crash armed on the write
// op, recovery may surface any prefix of that write.
func TestMemFSCrashingWriteMayTear(t *testing.T) {
	seen := map[int]bool{}
	for seed := uint64(0); seed < 32; seed++ {
		m := NewMemFS()
		m.SetTornSeed(seed)
		writeFile(t, m, "dir/f", "", true, true)
		f, err := m.OpenRW("dir/f")
		if err != nil {
			t.Fatal(err)
		}
		m.SetCrashAfter(m.Ops() + 1)
		if _, err := f.Write([]byte("abcd")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("want ErrCrashed, got %v", err)
		}
		m.Crash()
		got, ok := readFile(t, m, "dir/f")
		if !ok {
			t.Fatal("file lost")
		}
		if got != "abcd"[:len(got)] {
			t.Fatalf("seed %d: torn content %q not a prefix", seed, got)
		}
		seen[len(got)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("torn lengths never varied across seeds: %v", seen)
	}
}
