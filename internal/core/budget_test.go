package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"splitft/internal/apps"
	"splitft/internal/apps/applog"
	"splitft/internal/core"
	"splitft/internal/harness"
	"splitft/internal/model"
	"splitft/internal/ncl"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// budget is one run of TestControlPlaneBudget: a cluster, the application's
// current incarnation, and what the earlier one left behind.
type budget struct {
	c     *harness.Cluster
	fs    *core.FS
	fence int64
	port  apps.Port
	logs  int // ncl files the crashed store left, for the kvstore row
}

func (b *budget) newFS(p *simnet.Proc) (err error) {
	b.fs, err = b.c.NewFS(p, "app", b.fence)
	b.fence++
	return err
}

// crash restarts the application node and brings up the next incarnation.
func (b *budget) crash(p *simnet.Proc) error {
	b.c.CrashApp()
	b.c.RestartApp()
	return b.newFS(p)
}

// create opens a new ncl file and writes a record to it.
func (b *budget) create(p *simnet.Proc, path string) (core.File, error) {
	f, err := b.fs.OpenFile(p, path, core.O_NCL|core.O_CREATE, 1<<20)
	if err == nil {
		_, err = f.Write(p, []byte("record"))
	}
	return f, err
}

// store opens the port's store under SplitFT, acknowledges a few writes and
// crashes.
func (b *budget) store(p *simnet.Proc) error {
	st, err := b.port.Open(p, b.fs, b.c.Profile.Apps, applog.SplitFT, apps.Sizing{})
	for i := 0; err == nil && i < 20; i++ {
		err = st.Put(p, fmt.Sprintf("key%03d", i), []byte("value"))
	}
	if err != nil {
		return err
	}
	if err := b.crash(p); err != nil {
		return err
	}
	files, err := b.fs.ListNCL(p)
	b.logs = len(files)
	return err
}

// leftBehind creates "wal" and crashes: the next incarnation finds the file
// in the ap-map and nowhere else.
func (b *budget) leftBehind(p *simnet.Proc) error {
	if _, err := b.create(p, "wal"); err != nil {
		return err
	}
	return b.crash(p)
}

// reopen runs the recovering open through its barrier: the replacement's
// list and the republishing set belong to the recovery's background phase.
func (b *budget) reopen(p *simnet.Proc) error {
	f, err := b.fs.OpenFile(p, "wal", core.O_NCL, 0)
	if err != nil {
		return err
	}
	return f.Sync(p)
}

func (b *budget) unlink(p *simnet.Proc) error { return b.fs.Unlink(p, "wal") }

// unlinkSettled unlinks "wal" and waits out its ap-map delete, which the
// unlink of a log the lib holds submits without awaiting it.
func (b *budget) unlinkSettled(p *simnet.Proc) error {
	err := b.unlink(p)
	p.Sleep(5 * time.Millisecond)
	return err
}

func (b *budget) recoverStore(p *simnet.Proc) error {
	_, err := b.port.Recover(p, b.fs, b.c.Profile.Apps, applog.SplitFT, apps.Sizing{})
	return err
}

type ops map[string]int

// TestControlPlaneBudget pins how many controller commands each core.FS flow
// costs, counted as the "controller" spans the application emits (keep-alives
// and session set-up aside): the ap-map is not asked about a name the lib's
// directory holds — the session listed it, fenced, or the lib wrote it since —
// nor by the create of a name the lib does not know, only about a name the
// directory lacks (a dfs file's unlink, a file a newer instance created); it
// is written once per membership (DESIGN.md §15). TTL 0,
// so every allocation — a whole group at open, the missing members at
// recovery — is one registry list.
func TestControlPlaneBudget(t *testing.T) {
	cases := []struct {
		name, policy, port string
		// quiet: no peer republishes its free memory while the flow runs.
		quiet   bool
		prepare func(b *budget, p *simnet.Proc) error
		call    func(b *budget, p *simnet.Proc) error
		want    func(b *budget) ops
		// spans, if set, checks the flow's spans as well.
		spans func(spans []*trace.Span) error
	}{
		{name: "create absent",
			call: func(b *budget, p *simnet.Proc) error { _, err := b.create(p, "wal"); return err },
			// The name is not in the directory the session started with, so
			// the open creates it without asking the ap-map first.
			want: func(*budget) ops { return ops{"list": 1, "create": 1} }},
		{name: "O_CREATE of a name the directory missed",
			prepare: func(b *budget, p *simnet.Proc) error {
				// Another instance, on another node, creates "wal" after this
				// one's session started, acknowledges a record and dies.
				opts := b.c.FSOptions("app", b.fence)
				opts.Node = b.c.Sim.NewNode("standby")
				other, err := core.NewFS(p, opts)
				if err != nil {
					return err
				}
				f, err := other.OpenFile(p, "wal", core.O_NCL|core.O_CREATE, 1<<20)
				if err == nil {
					_, err = f.Write(p, []byte("record"))
				}
				opts.Node.Crash()
				return err
			},
			call: func(b *budget, p *simnet.Proc) error {
				f, err := b.fs.OpenFile(p, "wal", core.O_NCL|core.O_CREATE, 1<<20)
				if err == nil && f.Size() != int64(len("record")) {
					err = fmt.Errorf("%d bytes, want the record", f.Size())
				}
				if err != nil {
					return err
				}
				return f.Sync(p)
			},
			// The create's registry list and conditional create, which the
			// other, newer instance's session fenced, and publish's read-back
			// of that instance's entry, which the recovering open then finds
			// in the directory.
			want: func(*budget) ops { return ops{"list": 1, "create": 1, "get": 1} }},
		{name: "reopen existing, full house, mirror",
			prepare: (*budget).leftBehind,
			call:    (*budget).reopen,
			// The session listed the entry: the reopen asks nothing.
			want: func(*budget) ops { return ops{} }},
		{name: "reopen with a replacement",
			prepare: func(b *budget, p *simnet.Proc) error {
				f, err := b.create(p, "wal")
				if err != nil {
					return err
				}
				member := f.(interface{ Log() *ncl.Log }).Log().LivePeers()[0]
				b.c.Sim.Node(member).Crash()
				return b.crash(p)
			},
			call: (*budget).reopen,
			want: func(*budget) ops { return ops{"list": 1, "set": 1} }},
		{name: "reopen a frame log", policy: "quorum",
			prepare: (*budget).leftBehind,
			call:    (*budget).reopen,
			want:    func(*budget) ops { return ops{"set": 1} }},
		{name: "unlink unopened",
			prepare: (*budget).leftBehind,
			call:    (*budget).unlink,
			want:    func(*budget) ops { return ops{"delete": 1} }},
		{name: "unlink open handle",
			prepare: func(b *budget, p *simnet.Proc) error { _, err := b.create(p, "wal"); return err },
			call:    (*budget).unlinkSettled,
			want:    func(*budget) ops { return ops{"delete": 1} }},
		{name: "unlink closed but live",
			prepare: func(b *budget, p *simnet.Proc) error {
				f, err := b.create(p, "wal")
				if err != nil {
					return err
				}
				return f.Close(p)
			},
			call: (*budget).unlinkSettled,
			want: func(*budget) ops { return ops{"delete": 1} }},
		{name: "rotate", quiet: true,
			prepare: func(b *budget, p *simnet.Proc) error { _, err := b.create(p, "wal"); return err },
			call: func(b *budget, p *simnet.Proc) error {
				if err := b.unlink(p); err != nil {
					return err
				}
				if _, err := b.create(p, "wal-next"); err != nil {
					return err
				}
				p.Sleep(5 * time.Millisecond)
				return nil
			},
			// The successor is set up on the group the unlink parked: no
			// registry list, and its members lend what they lent before. Its
			// name is one the lib does not know: no get either. The unlink
			// does not await its delete, which commits beside the successor's
			// set-up.
			want: func(*budget) ops { return ops{"delete": 1, "create": 1} },
			spans: func(spans []*trace.Span) error {
				del, open := trace.First(spans, "controller", "delete"), trace.First(spans, "ncl", "open")
				if !del.Done() || !open.Done() || del.Start >= open.End || del.End <= open.Start {
					return fmt.Errorf("controller/delete [%v, %v] does not overlap the successor's ncl/open [%v, %v]",
						del.Start, del.End, open.Start, open.End)
				}
				return nil
			}},
		{name: "truncate existing",
			prepare: (*budget).leftBehind,
			call: func(b *budget, p *simnet.Proc) error {
				_, err := b.fs.OpenFile(p, "wal", core.O_NCL|core.O_TRUNC, 1<<20)
				return err
			},
			want: func(*budget) ops { return ops{"delete": 1, "list": 1, "create": 1} }},
		{name: "unlink a dfs file",
			prepare: func(b *budget, p *simnet.Proc) error {
				_, err := b.fs.OpenFile(p, "/table.sst", core.O_CREATE, 0)
				return err
			},
			call: func(b *budget, p *simnet.Proc) error { return b.fs.Unlink(p, "/table.sst") },
			// A name the directory lacks is still asked about.
			want: func(*budget) ops { return ops{"get": 1} }},
		{name: "OpenSplit of an existing file",
			prepare: func(b *budget, p *simnet.Proc) error {
				sf, err := b.fs.OpenSplit(p, "/mixed.db", 4096, 1<<20)
				if err == nil {
					_, err = sf.Write(p, []byte("small"))
				}
				if err != nil {
					return err
				}
				return b.crash(p)
			},
			call: func(b *budget, p *simnet.Proc) error {
				sf, err := b.fs.OpenSplit(p, "/mixed.db", 4096, 1<<20)
				if err == nil && sf.Size() != 5 {
					err = fmt.Errorf("recovered split file holds %d bytes, want 5", sf.Size())
				}
				return err
			},
			want: func(*budget) ops { return ops{} }},
		{name: "litedb.Recover", port: "litedb",
			prepare: (*budget).store,
			call:    (*budget).recoverStore,
			want:    func(*budget) ops { return ops{} }},
		{name: "kvstore.Recover", port: "kvstore",
			prepare: (*budget).store,
			call:    (*budget).recoverStore,
			// The directory names the survivors; each is reopened from it and
			// reclaimed — still live in the lib — with one delete; then the
			// fresh WAL is a "create absent" on the group the last reclaim
			// parked, so without a registry list.
			want: func(b *budget) ops { return ops{"delete": b.logs, "create": 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// The dfs extent plane keeps its metadata on the controller too;
			// without it every command counted here is ncl's.
			prof := *model.Baseline()
			prof.DFS.ExtentNodes = 0
			if tc.policy != "" {
				prof.NCL.Replication = tc.policy
			}
			col := trace.New()
			b := &budget{c: harness.New(harness.Options{Seed: 3, NumPeers: 5, Profile: &prof, Trace: col})}
			b.port, _ = apps.Lookup(tc.port)
			err := b.c.Run(func(p *simnet.Proc) error {
				if err := b.newFS(p); err != nil {
					return err
				}
				if tc.prepare != nil {
					if err := tc.prepare(b, p); err != nil {
						return fmt.Errorf("prepare: %w", err)
					}
				}
				mark := col.Len()
				if err := tc.call(b, p); err != nil {
					return err
				}
				got, elsewhere := ops{}, ops{}
				spans := col.Since(mark)
				for _, sp := range spans {
					// The flows run in the harness's own proc, which belongs to
					// no node, and a recovery's background phase on the
					// application's; peers and controller replicas run on theirs.
					if sp.Layer != "controller" || sp.Op == "keep-alive" {
						continue
					}
					if sp.Node == "" || sp.Node == b.c.AppNode.Name() {
						got[sp.Op]++
					} else {
						elsewhere[sp.Op]++
					}
				}
				if want := tc.want(b); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("controller commands %v, want %v", got, want)
				}
				if tc.quiet && elsewhere["set"] != 0 {
					return fmt.Errorf("peers republished their free memory %d times", elsewhere["set"])
				}
				if tc.spans != nil {
					return tc.spans(spans)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWarmReplacementRegistersNothing pins what a live replacement costs on
// the peer it lands on once that peer has been up for a second: its lendable
// memory is pinned (DESIGN.md §3b), so the set-up inside "ncl"/"replace.connect"
// is a bind — an "rdma"/"refresh" span — and no "rdma"/"register" runs
// anywhere while it lasts. A change that puts registration back on the repair
// path shows here before it shows as write_p99_us on peer-fault-open.
func TestWarmReplacementRegistersNothing(t *testing.T) {
	col := trace.New()
	b := &budget{c: harness.New(harness.Options{Seed: 5, NumPeers: 5, Trace: col})}
	err := b.c.Run(func(p *simnet.Proc) error {
		if err := b.newFS(p); err != nil {
			return err
		}
		f, err := b.create(p, "wal")
		if err != nil {
			return err
		}
		p.Sleep(time.Second)
		lg := f.(interface{ Log() *ncl.Log }).Log()
		mark := col.Len()
		b.c.Sim.Node(lg.LivePeers()[0]).Crash()
		for lg.Replacements == 0 {
			if _, err := f.Write(p, []byte("record")); err != nil {
				return err
			}
			p.Sleep(time.Millisecond)
		}
		spans := col.Since(mark)
		connect := trace.First(spans, "ncl", "replace.connect")
		if !connect.Done() {
			return fmt.Errorf("no finished ncl/replace.connect span among %d", len(spans))
		}
		during := func(op string) (n int) {
			for _, sp := range trace.Filter(spans, "rdma", op) {
				if sp.Start < connect.End && sp.End > connect.Start {
					n++
				}
			}
			return n
		}
		if reg, ref := during("register"), during("refresh"); reg != 0 || ref != 1 {
			return fmt.Errorf("%d rdma/register and %d rdma/refresh spans during ncl/replace.connect, want 0 and 1", reg, ref)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestControllerErrorIsNotAbsence cuts the application off from the
// controller: asking about a name then fails, and that failure must reach the
// caller as such. Read as "no such ncl file", it would send an unlink of a
// live log to the dfs (ErrNotExist for a file that exists) and let an
// O_CREATE open start an empty log over one that holds acknowledged writes —
// the open of a name the lib knows and of one it does not alike.
func TestControllerErrorIsNotAbsence(t *testing.T) {
	b := &budget{c: harness.New(harness.Options{Seed: 4, NumPeers: 5})}
	err := b.c.Run(func(p *simnet.Proc) error {
		if err := b.newFS(p); err != nil {
			return err
		}
		if _, err := b.create(p, "wal"); err != nil {
			return err
		}
		if err := b.crash(p); err != nil {
			return err
		}
		for _, n := range b.c.Controller.Nodes() {
			b.c.Sim.Net().Partition(b.c.AppNode, n)
		}
		if err := b.fs.Unlink(p, "wal"); err == nil || errors.Is(err, core.ErrNotExist) {
			return fmt.Errorf("unlink without a controller: %v, want the controller's error", err)
		}
		if _, err := b.fs.OpenFile(p, "wal", core.O_NCL|core.O_CREATE, 1<<20); err == nil || errors.Is(err, core.ErrNotExist) {
			return fmt.Errorf("open without a controller: %v, want the controller's error", err)
		}
		// A name the session's directory did not list is created first; the
		// create fails, and so does the recovery it falls back to.
		if _, err := b.fs.OpenFile(p, "wal-unlisted", core.O_NCL|core.O_CREATE, 1<<20); err == nil || errors.Is(err, core.ErrNotExist) {
			return fmt.Errorf("create-first open without a controller: %v, want the controller's error", err)
		}
		for _, n := range b.c.Controller.Nodes() {
			b.c.Sim.Net().Heal(b.c.AppNode, n)
		}
		if err := b.crash(p); err != nil { // the cut outlasted the session
			return err
		}
		f, err := b.fs.OpenFile(p, "wal", core.O_NCL, 0)
		if err == nil && f.Size() != int64(len("record")) {
			err = fmt.Errorf("%d bytes, want the record", f.Size())
		}
		if err != nil {
			return fmt.Errorf("reopen after the outage: %w", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
