// Package core implements the SplitFT layer (§3, §4.1): a POSIX-style file
// interface that splits application writes between the disaggregated file
// system and near-compute logs. Classification is static and at file
// granularity: applications tag files that receive small synchronous writes
// with the O_NCL open flag (write-ahead logs, append-only files); everything
// else — SSTables, checkpoints, database files — goes straight to the dfs,
// exactly as in the DFT paradigm.
//
// The same FS serves all three configurations of the evaluation: weak-app
// DFT (logs on dfs, no fsync), strong-app DFT (logs on dfs, fsync per
// batch), and SplitFT (logs opened with O_NCL; Sync on them costs nothing
// because every record is already replicated synchronously — except right
// after a recovering open, where it is the barrier behind which the log's
// redundancy is restored).
//
// The package also implements the §6 extension: fine-granular write
// splitting for files that mix small and large writes (see splitfile.go).
package core

import (
	"errors"
	"fmt"

	"splitft/internal/controller"
	"splitft/internal/dfs"
	"splitft/internal/ncl"
	"splitft/internal/rdma"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// Open flags.
type OpenFlag int

const (
	// O_CREATE creates the file if absent.
	O_CREATE OpenFlag = 1 << iota
	// O_NCL routes the file to near-compute logs: small synchronous writes
	// are replicated to log peers instead of hitting the dfs. Opening an
	// existing ncl file (after a crash) triggers NCL recovery.
	O_NCL
	// O_TRUNC truncates an existing file.
	O_TRUNC
	// O_APPEND declares the file append-only. For ncl files this enables
	// the tail-shipping recovery catch-up (§4.5.1): lagging peers receive
	// only the missing log suffix instead of a whole-region copy. Never
	// set it on circular logs.
	O_APPEND
	// O_EXTENT routes a new dfs file to the extent plane: large sequential
	// writes become chained appends pipelining at per-link bandwidth
	// instead of paying the flat sync path. Only meaningful at create —
	// existing files open as whatever backend they were created on — and a
	// no-op when the cluster has no extent plane (the local-ext4 baseline).
	O_EXTENT
)

// ErrNotExist is returned for a file that does not exist.
var ErrNotExist = errors.New("splitft: file does not exist")

// File is the interface applications program against; both dfs-backed and
// ncl-backed files implement it.
type File interface {
	Write(p *simnet.Proc, data []byte) (int, error)
	Pwrite(p *simnet.Proc, data []byte, off int64) (int, error)
	Read(p *simnet.Proc, buf []byte) (int, error)
	Pread(p *simnet.Proc, buf []byte, off int64) (int, error)
	Sync(p *simnet.Proc) error
	Close(p *simnet.Proc) error
	Size() int64
	Path() string
}

// Options configures an FS instance.
type Options struct {
	Controller *controller.Service
	Fabric     *rdma.Fabric
	DFS        *dfs.Cluster
	Node       *simnet.Node
	AppID      string
	// Fencing is the application incarnation; bump on every restart.
	Fencing int64
	// NCL tunes the near-compute log library: replication policy, default
	// region capacity (used when OpenFile is called without an explicit
	// size), and the hardware cost model — a profile's NCL field. Zero
	// Replication and DefaultRegionSize mean mirror f=1 over 64 MiB.
	NCL ncl.Config
}

// FS is one application's SplitFT file system instance.
type FS struct {
	node   *simnet.Node
	dfs    *dfs.Client
	lib    *ncl.Lib
	nclCfg ncl.Config

	nclOpen map[string]*nclFile
}

// Durable writes are observable as trace spans: the core layer emits
// "core"/"write.ncl" for each replicated record and "core"/"write.dfs" for
// each dfs fsync (with a "bytes" attribute carrying the flushed size), which
// is what the Fig 1 IO-size characterization queries. NCL recovery emits the
// "ncl"/"recover.*" phase spans Fig 11(b) is built from.

// NewFS mounts the dfs and initializes ncl-lib for the application.
func NewFS(p *simnet.Proc, opts Options) (*FS, error) {
	lib, err := ncl.NewLib(p, opts.Controller, opts.Fabric, opts.Node, opts.AppID, opts.Fencing, opts.NCL)
	if err != nil {
		return nil, err
	}
	return &FS{
		node:    opts.Node,
		dfs:     opts.DFS.Mount(opts.Node),
		lib:     lib,
		nclCfg:  opts.NCL,
		nclOpen: make(map[string]*nclFile),
	}, nil
}

// Node returns the application-server node this FS instance runs on.
func (fs *FS) Node() *simnet.Node { return fs.node }

// OpenFile opens path. With O_NCL the file lives in near-compute logs:
// creation allocates peer regions of regionSize (0 = default), and opening
// an existing ncl file runs recovery, which streams (DESIGN.md §16): the
// open returns once the file's size is known, a read blocks until its bytes
// have arrived, and what was read is as redundant as before the crash only
// once Sync or a write has returned. Without O_NCL the file is a plain dfs
// file.
func (fs *FS) OpenFile(p *simnet.Proc, path string, flags OpenFlag, regionSize int64) (File, error) {
	if flags&O_NCL != 0 {
		return fs.openNCL(p, path, flags, regionSize)
	}
	inner, err := fs.dfs.OpenFile(p, path, flags&O_CREATE != 0, flags&O_EXTENT != 0)
	if err != nil {
		if errors.Is(err, dfs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		return nil, err
	}
	return dfsFile{inner}, nil
}

// openNCL opens path in near-compute logs. Whatever the flags, the ap-map
// is asked about the name at most once (DESIGN.md §15), and not at all for a
// name the lib's fenced directory holds: the Recover that reopens it and,
// under O_TRUNC, the release that clears it read the entry from there, and
// an O_CREATE of a name the lib does not know creates it (createFirst).
func (fs *FS) openNCL(p *simnet.Proc, path string, flags OpenFlag, regionSize int64) (File, error) {
	if f, ok := fs.nclOpen[path]; ok {
		return f, nil
	}
	if flags&O_TRUNC != 0 {
		// Truncating a file that exists re-creates it.
		if err := fs.lib.ReleaseByName(p, path); err == nil {
			flags |= O_CREATE
		} else if !errors.Is(err, ncl.ErrNotFound) {
			return nil, err
		}
	} else if flags&O_CREATE != 0 && !fs.lib.Known(path) {
		return fs.createFirst(p, path, flags, regionSize)
	} else if lg, err := fs.lib.Recover(p, path); err == nil {
		return fs.handle(lg, path), nil
	} else if !errors.Is(err, ncl.ErrNotFound) {
		return nil, err
	}
	if flags&O_CREATE == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	lg, err := fs.lib.Open(p, path, regionSize, flags&O_APPEND != 0)
	if err != nil {
		return nil, err
	}
	return fs.handle(lg, path), nil
}

// createFirst opens a name the lib does not know — a rotation's successor, a
// fresh WAL — by creating it, one controller round trip fewer than asking
// the ap-map first. The lib can miss only a name a newer instance of the
// application created after this one's session started, and that instance's
// session fenced this one: the create's ap-map write fails (ErrFenced), the
// file is recovered instead, and the create's error is returned only when
// the ap-map holds no entry for the name.
func (fs *FS) createFirst(p *simnet.Proc, path string, flags OpenFlag, regionSize int64) (File, error) {
	lg, err := fs.lib.Open(p, path, regionSize, flags&O_APPEND != 0)
	if err != nil {
		var rerr error
		if lg, rerr = fs.lib.Recover(p, path); errors.Is(rerr, ncl.ErrNotFound) {
			return nil, err
		} else if rerr != nil {
			return nil, rerr
		}
	}
	return fs.handle(lg, path), nil
}

// handle wraps lg in a fresh file handle (offset zero) and registers it as
// path's open handle.
func (fs *FS) handle(lg *ncl.Log, path string) *nclFile {
	f := &nclFile{fs: fs, lg: lg, path: path}
	fs.nclOpen[path] = f
	return f
}

// Unlink removes a file from whichever layer holds it. Deleting an ncl file
// releases its peer regions and ap-map entry — the delete-to-reclaim
// pattern of RocksDB/Redis logs. Only when the ap-map answers that it does
// not hold the name — asked, since the lib's directory lacks it — is the
// file looked for in the dfs: a controller error is returned, never read as
// "not an ncl file".
func (fs *FS) Unlink(p *simnet.Proc, path string) error {
	delete(fs.nclOpen, path)
	err := fs.lib.ReleaseByName(p, path)
	if !errors.Is(err, ncl.ErrNotFound) {
		return err
	}
	err = fs.dfs.Unlink(p, path)
	if errors.Is(err, dfs.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	return err
}

// Rename renames a dfs file (ncl files are never renamed by the ported
// applications).
func (fs *FS) Rename(p *simnet.Proc, oldPath, newPath string) error {
	return fs.dfs.Rename(p, oldPath, newPath)
}

// ListNCL lists the application's ncl files (recovery discovery).
func (fs *FS) ListNCL(p *simnet.Proc) ([]string, error) { return fs.lib.ListFiles(p) }

// ListDFS lists dfs paths with the given prefix.
func (fs *FS) ListDFS(prefix string) []string { return fs.dfs.List(prefix) }

// ---- dfs-backed file ----

// dfsFile is a dfs handle on either backend (flat or extent, chosen by the
// dfs at create) with the core layer's durable-write span around Sync.
type dfsFile struct{ *dfs.File }

func (f dfsFile) Sync(p *simnet.Proc) error {
	sp := p.StartSpan("core", "write.dfs",
		trace.Str("path", f.Path()), trace.Int("bytes", f.DirtyBytes()))
	defer p.EndSpan(sp)
	return f.File.Sync(p)
}

// ---- ncl-backed file ----

type nclFile struct {
	fs     *FS
	lg     *ncl.Log
	path   string
	cursor int64
}

func (f *nclFile) Write(p *simnet.Proc, data []byte) (int, error) {
	n, err := f.Pwrite(p, data, f.cursor)
	f.cursor += int64(n)
	return n, err
}

func (f *nclFile) Pwrite(p *simnet.Proc, data []byte, off int64) (int, error) {
	sp := p.StartSpan("core", "write.ncl",
		trace.Str("path", f.path), trace.Int("bytes", int64(len(data))))
	defer p.EndSpan(sp)
	if err := f.lg.Record(p, off, data); err != nil {
		return 0, err
	}
	return len(data), nil
}

func (f *nclFile) Read(p *simnet.Proc, buf []byte) (int, error) {
	n, err := f.Pread(p, buf, f.cursor)
	f.cursor += int64(n)
	return n, err
}

func (f *nclFile) Pread(p *simnet.Proc, buf []byte, off int64) (int, error) {
	// Reads come from the local buffer; after recovery the content is
	// prefetched from the recovery peer (Fig 11a) and a read waits only for
	// the bytes it asks for. ncl-lib serves them in user space — no syscall
	// — so the fixed cost undercuts a dfs read.
	p.Sleep(f.fs.nclCfg.LocalReadCPU)
	return f.lg.ReadAt(p, buf, off)
}

// Sync has nothing to write for ncl files: every Record is already
// replicated to a majority of log peers before returning. This is precisely
// SplitFT's performance win — the fsync disappears from the critical path.
// What is left of it is the barrier of a recovering open: it returns once
// what was read from the file is as redundant as before the crash.
func (f *nclFile) Sync(p *simnet.Proc) error {
	p.Sleep(f.fs.nclCfg.SyncCPU)
	return f.lg.Sync(p)
}

func (f *nclFile) Close(p *simnet.Proc) error {
	// The log stays registered (and recoverable) until unlinked.
	delete(f.fs.nclOpen, f.path)
	return nil
}

func (f *nclFile) Size() int64  { return f.lg.Length() }
func (f *nclFile) Path() string { return f.path }

// Log exposes the underlying ncl log (white-box tests and benches).
func (f *nclFile) Log() *ncl.Log { return f.lg }
