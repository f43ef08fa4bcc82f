package dfs

import (
	"errors"
	"fmt"
	"time"

	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// backend is the storage engine behind an open File: the three things the
// flat primary-copy path (flat.go) and the extent plane (extfile.go) do
// differently. Everything else a client-side buffered file is — view, dirty
// spans, cursor, the flush protocol around commit — lives in File, once.
type backend interface {
	// admit sleeps p for what buffering n bytes at off costs the writer and
	// does the engine's bookkeeping for them: the flat path stalls and
	// throttles against the mount's dirty total (the writeback plane, which
	// Pwrite grows by what the write adds to the file's dirty spans); an
	// extent file pays the local copy only and marks the range resident.
	admit(p *simnet.Proc, off, n int64)
	// commit makes spans (n bytes, already detached from the file's dirty
	// set) durable from the file's view, or returns an error having made
	// none of them durable. foreground is an fsync, otherwise writeback.
	commit(p *simnet.Proc, spans []span, n int64, foreground bool) error
	// load makes view[off:off+n) hold the file's content and sleeps p for
	// what the read costs: block cache and readahead (or direct IO) on the
	// flat path, range fetches from chain members on the extent plane.
	load(p *simnet.Proc, off, n int64) error
}

// localCopyCost is the client-side price of moving n bytes between the
// caller's buffer and the view: one syscall plus a memory copy.
func localCopyCost(pm Params, n int64) time.Duration {
	return pm.SyscallFixed + time.Duration(float64(n)/pm.MemBandwidth*float64(time.Second))
}

// File is an open handle. The view holds the client's coherent picture of
// the file (durable content plus buffered writes); dirty spans track what
// fsync must push. A single client writing a file at a time is assumed, as
// in the paper's applications.
type File struct {
	client *Client
	path   string
	// df is the inode this handle writes through. Flushes apply to the
	// inode, not to whatever cl.cluster.files[path] resolves to at landing
	// time: a Rename during a flush moves the inode (data follows the
	// file), and an Unlink orphans it (data goes nowhere) — never does a
	// flush resurrect content into a file that replaced this one at path.
	df *durableFile
	b  backend
	// syncs is the cluster's fsync counter for this file's backend.
	syncs *int64

	view   []byte
	size   int64 // buffered length; an extent file's view may be shorter
	dirty  []span
	offset int64 // cursor for Write/Read
	closed bool
	// flushMu is held across a flush: an fsync must not return before an
	// earlier in-flight flush of this file has landed durably.
	flushMu simnet.Mutex
}

// OpenFile opens path, creating it if create is set and it doesn't exist —
// on the extent plane when extent is set and the plane is attached, on the
// flat path otherwise. Existing files open as whatever they were created as
// (the flag only matters at create), so readers need no knowledge of the
// backend. The cursor starts at 0.
func (cl *Client) OpenFile(p *simnet.Proc, path string, create, extent bool) (*File, error) {
	if err := cl.checkAlive(); err != nil {
		return nil, err
	}
	df, ok := cl.cluster.files[path]
	if !ok && !create {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	p.Sleep(cl.cluster.params.MetaFixed)
	if !ok {
		df = &durableFile{}
		if extent && cl.cluster.ExtentsEnabled() {
			df.ext = &extManifest{}
		}
		cl.cluster.files[path] = df
	}
	f := &File{client: cl, path: path, df: df}
	if df.ext != nil {
		// The append tail is not recovered: appends after reopen start on a
		// fresh extent (log-structured; the partially filled old tail just
		// stays as it is, referenced by the manifest).
		f.size = df.ext.size
		f.b = &extentBackend{f: f}
		f.syncs = &cl.cluster.ExtentSyncs
	} else {
		f.view = append([]byte(nil), df.data...)
		f.size = int64(len(f.view))
		f.b = &flatBackend{f: f}
		f.syncs = &cl.cluster.Syncs
		cl.open[f] = struct{}{}
	}
	return f, nil
}

// DirtyBytes reports how much buffered data a Sync would flush right now.
func (f *File) DirtyBytes() int64 { return spanBytes(f.dirty) }

// Size returns the file's current (buffered) length.
func (f *File) Size() int64 { return f.size }

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Write appends data at the cursor (buffered; durable only after Sync).
func (f *File) Write(p *simnet.Proc, data []byte) (int, error) {
	n, err := f.Pwrite(p, data, f.offset)
	f.offset += int64(n)
	return n, err
}

// Pwrite writes data at off (buffered).
func (f *File) Pwrite(p *simnet.Proc, data []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if err := f.client.checkAlive(); err != nil {
		return 0, err
	}
	tsp := p.StartSpan("dfs", "pwrite", trace.Str("path", f.path), trace.Int("bytes", int64(len(data))))
	defer p.EndSpan(tsp)
	end := off + int64(len(data))
	f.b.admit(p, off, end-off)
	f.view = grow(f.view, end)
	copy(f.view[off:end], data)
	before := spanBytes(f.dirty)
	f.dirty = addSpan(f.dirty, span{start: off, end: end})
	if _, flat := f.b.(*flatBackend); flat {
		// The mount's dirty total is what its flushes will push: a rewrite
		// of bytes already dirty adds nothing to it.
		f.client.dirty += spanBytes(f.dirty) - before
	}
	if end > f.size {
		f.size = end
	}
	return len(data), nil
}

// Sync makes all buffered writes durable (fsync).
func (f *File) Sync(p *simnet.Proc) error {
	if f.closed {
		return ErrClosed
	}
	return f.flush(p, true)
}

// flush pushes the dirty spans through the backend. foreground
// distinguishes an explicit fsync from background writeback.
func (f *File) flush(p *simnet.Proc, foreground bool) error {
	cl := f.client
	if err := cl.checkAlive(); err != nil {
		return err
	}
	op := "writeback"
	if foreground {
		op = "fsync"
	}
	tsp := p.StartSpan("dfs", op, trace.Str("path", f.path))
	defer p.EndSpan(tsp)
	f.flushMu.Lock(p)
	defer f.flushMu.Unlock(p)
	n := spanBytes(f.dirty)
	tsp.SetAttr(trace.Int("bytes", n))
	if n == 0 {
		if foreground {
			p.Sleep(cl.cluster.params.SyncCleanFixed)
			*f.syncs++
		}
		return nil
	}
	spans := f.dirty
	f.dirty = nil
	if err := f.b.commit(p, spans, n, foreground); err != nil {
		// Nothing landed: the spans stay dirty for the next flush — unless
		// the mount died, in which case its buffers died with it.
		if !cl.dead {
			for _, s := range spans {
				f.dirty = addSpan(f.dirty, s)
			}
		}
		return err
	}
	if foreground {
		*f.syncs++
	}
	return nil
}

// errDiedInFlush is what a flush returns when its mount's node crashed
// between the data landing and the commit: nothing was committed.
var errDiedInFlush = errors.New("dfs: client died during flush")

// Read reads from the cursor.
func (f *File) Read(p *simnet.Proc, buf []byte) (int, error) {
	n, err := f.Pread(p, buf, f.offset)
	f.offset += int64(n)
	return n, err
}

// Pread reads len(buf) bytes at off, returning the count read (short at
// EOF). Cost depends on the backend and on what is already client-resident.
func (f *File) Pread(p *simnet.Proc, buf []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if err := f.client.checkAlive(); err != nil {
		return 0, err
	}
	if off >= f.size {
		return 0, nil
	}
	tsp := p.StartSpan("dfs", "pread", trace.Str("path", f.path), trace.Int("bytes", int64(len(buf))))
	defer p.EndSpan(tsp)
	n := int64(len(buf))
	if off+n > f.size {
		n = f.size - off
	}
	if err := f.b.load(p, off, n); err != nil {
		return 0, err
	}
	copy(buf[:n], f.view[off:off+n])
	return int(n), nil
}

// Close releases the handle. POSIX close doesn't imply fsync: a file in the
// mount's writeback plane pushes its remaining dirty spans at writeback
// price, so the data lands as the kernel would land it. An extent file has
// no writeback to hand them to, so it syncs them.
func (f *File) Close(p *simnet.Proc) error {
	if f.closed {
		return ErrClosed
	}
	_, writeback := f.client.open[f]
	if len(f.dirty) > 0 && !f.client.dead {
		if err := f.flush(p, !writeback); err != nil {
			return err
		}
	}
	f.closed = true
	delete(f.client.open, f)
	return nil
}
