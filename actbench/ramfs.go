package main

import (
	"fmt"
	"io"
	"io/fs"
	"path"
	"sort"
	"sync"

	"act/internal/vfs"
)

// ramFS is a tmpfs-like vfs.FS: files live in process memory, writes
// append in amortized constant time, and Sync and SyncDir return at once
// because RAM has nothing to flush. fleet-rw mounts the fleet store on it
// so the run measures the WAL's framing and bookkeeping rather than a
// shared disk. vfs.MemFS does not fit here: its crash model copies the
// whole file on every extending write and every Sync.
type ramFS struct {
	mu    sync.Mutex
	files map[string]*ramNode
	dirs  map[string]bool
}

type ramNode struct{ data []byte }

func newRAMFS() *ramFS {
	return &ramFS{files: map[string]*ramNode{}, dirs: map[string]bool{}}
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (r *ramFS) Create(name string) (vfs.File, error) {
	name = path.Clean(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	n := &ramNode{}
	r.files[name] = n
	return &ramFile{fs: r, node: n, name: name}, nil
}

func (r *ramFS) Open(name string) (vfs.File, error) {
	name = path.Clean(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.files[name]
	if !ok {
		return nil, notExist("open", name)
	}
	return &ramFile{fs: r, node: n, name: name, readonly: true}, nil
}

func (r *ramFS) OpenRW(name string) (vfs.File, error) {
	name = path.Clean(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.files[name]
	if !ok {
		n = &ramNode{}
		r.files[name] = n
	}
	return &ramFile{fs: r, node: n, name: name}, nil
}

func (r *ramFS) Rename(oldname, newname string) error {
	oldname, newname = path.Clean(oldname), path.Clean(newname)
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.files[oldname]
	if !ok {
		return notExist("rename", oldname)
	}
	delete(r.files, oldname)
	r.files[newname] = n
	return nil
}

func (r *ramFS) Remove(name string) error {
	name = path.Clean(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(r.files, name)
	return nil
}

func (r *ramFS) ReadDir(dir string) ([]string, error) {
	dir = path.Clean(dir)
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for p := range r.files {
		if path.Dir(p) == dir {
			names = append(names, path.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (r *ramFS) Stat(name string) (vfs.Info, error) {
	name = path.Clean(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.files[name]; ok {
		return vfs.Info{Size: int64(len(n.data))}, nil
	}
	if r.dirs[name] {
		return vfs.Info{IsDir: true}, nil
	}
	return vfs.Info{}, notExist("stat", name)
}

func (r *ramFS) MkdirAll(dir string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for d := path.Clean(dir); d != "." && d != "/"; d = path.Dir(d) {
		r.dirs[d] = true
	}
	return nil
}

func (r *ramFS) SyncDir(string) error { return nil }

// ramFile is an open handle; like every vfs.File it is used by one
// goroutine at a time, but the node it shares is guarded by the FS lock.
type ramFile struct {
	fs       *ramFS
	node     *ramNode
	name     string
	pos      int64
	readonly bool
	closed   bool
}

func (f *ramFile) Name() string { return f.name }

func (f *ramFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if f.pos >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *ramFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if f.readonly {
		return 0, fmt.Errorf("ramfs: write to read-only handle %s", f.name)
	}
	d := f.node.data
	if f.pos == int64(len(d)) {
		d = append(d, p...)
	} else {
		if end := f.pos + int64(len(p)); end > int64(len(d)) {
			d = append(d, make([]byte, end-int64(len(d)))...)
		}
		copy(d[f.pos:], p)
	}
	f.node.data = d
	f.pos += int64(len(p))
	return len(p), nil
}

func (f *ramFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += f.pos
	case io.SeekEnd:
		offset += int64(len(f.node.data))
	default:
		return 0, fmt.Errorf("ramfs: bad whence %d", whence)
	}
	f.pos = max(offset, 0)
	return f.pos, nil
}

func (f *ramFile) Sync() error {
	if f.closed {
		return fs.ErrClosed
	}
	return nil
}

func (f *ramFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if size < int64(len(f.node.data)) {
		f.node.data = f.node.data[:size]
	} else {
		f.node.data = append(f.node.data, make([]byte, size-int64(len(f.node.data)))...)
	}
	return nil
}

func (f *ramFile) Close() error {
	f.closed = true
	return nil
}
