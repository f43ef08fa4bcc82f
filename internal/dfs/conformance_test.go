package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"splitft/internal/simnet"
)

// The backend-conformance suite: one set of scripts, run over both storage
// backends behind File, checked step by step against an in-memory
// reference. The reference is the contract of §2.1 — a path's durable bytes
// are the handle's buffered bytes as of its last successful Sync (or
// Close), whatever crashed, raced or was reopened in between.

type confOp int

const (
	opWrite   confOp = iota // append n bytes at the cursor
	opPwrite                // write n bytes at off
	opPread                 // read n bytes at off through the open handle
	opSync                  // fsync, with step.race fired mid-flush
	opCutSync               // pwrite + fsync, the client crashed at every point of the two
	opClose                 // close the handle; its dirty data must land
	opCrash                 // crash the client between operations
	opReopen                // open from a second mount and read everything back
)

type confRace int

const (
	raceNone   confRace = iota
	raceUnlink          // the path is unlinked mid-flush
	raceRename          // the path is renamed, and re-created, mid-flush
)

type confStep struct {
	op   confOp
	off  int64
	n    int
	race confRace
}

var confScripts = []struct {
	name  string
	steps []confStep
}{
	{"append-overwrite-sync", []confStep{
		{op: opWrite, n: 300 << 10},
		{op: opSync},
		{op: opWrite, n: 200 << 10},                  // a dirty tail past the synced prefix
		{op: opPwrite, off: 250 << 10, n: 100 << 10}, // overlaps synced and dirty bytes
		{op: opPwrite, off: 10, n: 0},                // zero-length: dirties nothing
		{op: opPread, off: 200 << 10, n: 200 << 10},  // the writer reads its own buffer
		{op: opReopen},                               // a second mount sees the synced prefix only
		{op: opSync},
		{op: opSync}, // clean fsync
		{op: opReopen},
	}},
	{"hole-and-eof", []confStep{
		{op: opPwrite, off: 192 << 10, n: 64 << 10}, // [0, 192K) is a hole
		{op: opSync},
		{op: opPread, off: 128 << 10, n: 1 << 20}, // across the hole's edge and past EOF
		{op: opPread, off: 1 << 20, n: 16},        // wholly past EOF
		{op: opReopen},
	}},
	{"crash-before-sync", []confStep{
		{op: opWrite, n: 256 << 10},
		{op: opSync},
		{op: opWrite, n: 256 << 10},
		{op: opCrash},
		{op: opPread, off: 0, n: 1 << 20}, // the restarted client sees the synced prefix only
		{op: opWrite, n: 64 << 10},
		{op: opSync},
		{op: opReopen},
	}},
	{"crash-during-sync", []confStep{
		{op: opWrite, n: 1 << 20},
		{op: opSync},
		{op: opCutSync, off: 0, n: 1 << 20},
		{op: opReopen},
	}},
	{"crash-after-sync", []confStep{
		{op: opWrite, n: 1 << 20},
		{op: opSync},
		{op: opCrash},
		{op: opReopen},
	}},
	{"unlink-racing-flush", []confStep{
		{op: opWrite, n: 1 << 20},
		{op: opSync, race: raceUnlink},
	}},
	{"rename-racing-flush", []confStep{
		{op: opWrite, n: 1 << 20},
		{op: opSync, race: raceRename},
		{op: opWrite, n: 64 << 10}, // the handle follows its inode to the new name
		{op: opSync},
		{op: opReopen},
	}},
	{"close-with-dirty-data", []confStep{
		{op: opWrite, n: 256 << 10},
		{op: opSync},
		{op: opWrite, n: 256 << 10},
		{op: opClose},
		{op: opReopen},
	}},
}

// raceAfter is how far into a Sync the racing unlink or rename fires (a crash
// is placed by counting, opCutSync). On confParams a
// 1 MB flush holds the flat storage pipe for 2 ms before its 2.3 ms round
// trip, and spends ~3.5 ms pumping frames after a 0.5 ms allocation on the
// extent plane: 1.5 ms in, both have data in flight and nothing committed.
const raceAfter = 1500 * time.Microsecond

// confParams is failParams (links slow enough that a 1 MB flush spans
// milliseconds) with the writeback timer out of the picture: the script
// alone decides what is durable.
func confParams() Params {
	pm := failParams()
	pm.WritebackInterval = time.Hour
	return pm
}

// confRun interprets one script on one backend.
type confRun struct {
	t    *testing.T
	fx   *extFixture
	path string // where the handle's inode lives; "" once unlinked
	f    *File
	salt int

	buffered []byte            // the handle's view, per the reference
	durable  map[string][]byte // path -> durable bytes, per the reference
}

// fill returns n bytes that differ from every earlier fill, so a stale or
// misplaced range shows up as a content mismatch.
func (r *confRun) fill(n int) []byte {
	r.salt++
	out := pattern(n)
	for i := range out {
		out[i] += byte(r.salt * 31)
	}
	return out
}

// onNode runs fn in a proc on the client node and waits for it from p, a
// proc no crash can kill. It reports whether fn finished (false: the node
// crashed under it, as under any application).
func (r *confRun) onNode(p *simnet.Proc, fn func(p *simnet.Proc)) bool {
	done := false
	r.fx.node.Go("op", func(op *simnet.Proc) {
		fn(op)
		done = true
	})
	for !done && r.fx.node.Alive() {
		p.Sleep(20 * time.Microsecond)
	}
	return done
}

// restart revives the client after a crash, as a restarted process would:
// fresh mount, reopened file, buffers gone.
func (r *confRun) restart(p *simnet.Proc) {
	r.fx.node.Restart()
	r.fx.client = r.fx.cluster.Mount(r.fx.node)
	r.buffered = append([]byte(nil), r.durable[r.path]...)
	r.onNode(p, func(p *simnet.Proc) {
		f, err := r.fx.client.OpenFile(p, r.path, false, false)
		if err != nil {
			r.t.Errorf("reopen after crash: %v", err)
			return
		}
		// The reopened cursor starts at 0; the scripts append.
		f.offset = f.Size()
		r.f = f
	})
}

// check compares the cluster's durable state with the reference: the same
// paths, the same bytes.
func (r *confRun) check(step int) {
	r.t.Helper()
	var want []string
	for path := range r.durable {
		want = append(want, path)
	}
	sort.Strings(want)
	if got := r.fx.client.List("/"); fmt.Sprint(got) != fmt.Sprint(want) {
		r.t.Errorf("step %d: durable paths = %v, reference has %v", step, got, want)
	}
	for _, path := range want {
		got, _ := r.fx.cluster.DurableBytes(path)
		if !bytes.Equal(got, r.durable[path]) {
			r.t.Errorf("step %d: %s durable bytes (%d) differ from the last successful sync (%d)",
				step, path, len(got), len(r.durable[path]))
		}
	}
}

func (r *confRun) step(p *simnet.Proc, i int, st confStep) {
	t := r.t
	switch st.op {
	case opWrite, opPwrite:
		data := r.fill(st.n)
		off := st.off
		if st.op == opWrite {
			off = r.f.offset
		}
		dirtyBefore := r.f.DirtyBytes()
		r.onNode(p, func(p *simnet.Proc) {
			var n int
			var err error
			if st.op == opWrite {
				n, err = r.f.Write(p, data)
			} else {
				n, err = r.f.Pwrite(p, data, off)
			}
			if n != len(data) || err != nil {
				t.Errorf("step %d: write = %d, %v", i, n, err)
			}
		})
		if st.n == 0 && r.f.DirtyBytes() != dirtyBefore {
			t.Errorf("step %d: zero-length write dirtied %d bytes", i, r.f.DirtyBytes()-dirtyBefore)
		}
		if end := off + int64(len(data)); end > int64(len(r.buffered)) {
			r.buffered = append(r.buffered, make([]byte, end-int64(len(r.buffered)))...)
		}
		copy(r.buffered[off:], data)
		if r.f.Size() != int64(len(r.buffered)) {
			t.Errorf("step %d: size = %d, reference %d", i, r.f.Size(), len(r.buffered))
		}
	case opPread:
		r.onNode(p, func(p *simnet.Proc) { r.readBack(p, i, r.f, st.off, st.n, r.buffered) })
	case opSync:
		var err error
		returned := false
		sync := func(p *simnet.Proc) { err = r.f.Sync(p); returned = true }
		switch st.race {
		case raceNone:
			r.onNode(p, sync)
		default:
			r.fx.node.Go("sync", sync)
			p.Sleep(raceAfter)
			if returned {
				t.Errorf("step %d: sync returned before the race fired; raceAfter is mistuned", i)
			}
			r.race(p, i, st.race)
			for !returned && r.fx.node.Alive() {
				p.Sleep(20 * time.Microsecond)
			}
		}
		switch {
		case err != nil:
			t.Errorf("step %d: sync: %v", i, err)
		case r.path != "":
			r.durable[r.path] = append([]byte(nil), r.buffered...)
		}
		if r.f.DirtyBytes() != 0 {
			t.Errorf("step %d: %d bytes dirty after sync", i, r.f.DirtyBytes())
		}
	case opCutSync:
		// One crash per point of a cut ladder over the two calls, each followed
		// by a restart that finds the last synced bytes: nothing of a flush that
		// did not return is durable. The pass that completes is.
		data := r.fill(st.n)
		simnet.CutLadder(t.Logf, 22, 256, func(k int) bool {
			var err error
			if r.fx.node.RunCut(p, k, func(p *simnet.Proc) {
				if _, err = r.f.Pwrite(p, data, st.off); err == nil {
					err = r.f.Sync(p)
				}
			}) {
				if err != nil {
					t.Errorf("step %d: pwrite + sync: %v", i, err)
				}
				return true
			}
			r.check(i)
			r.restart(p)
			return t.Failed()
		})
		copy(r.buffered[st.off:], data)
		r.durable[r.path] = append([]byte(nil), r.buffered...)
	case opClose:
		r.onNode(p, func(p *simnet.Proc) {
			if err := r.f.Close(p); err != nil {
				t.Errorf("step %d: close: %v", i, err)
			}
			if _, err := r.f.Write(p, []byte("x")); !errors.Is(err, ErrClosed) {
				t.Errorf("step %d: write after close: %v", i, err)
			}
			if err := r.f.Sync(p); !errors.Is(err, ErrClosed) {
				t.Errorf("step %d: sync after close: %v", i, err)
			}
		})
		r.durable[r.path] = append([]byte(nil), r.buffered...)
	case opCrash:
		r.fx.node.Crash()
		r.check(i)
		r.restart(p)
	case opReopen:
		// Through a second mount: only durable bytes, whole-file and probed
		// across EOF, holes reading as zeros.
		cl2 := r.fx.cluster.Mount(r.fx.sim.NewNode(fmt.Sprintf("reader%d", i)))
		want := r.durable[r.path]
		f2, err := cl2.OpenFile(p, r.path, false, false)
		if err != nil {
			t.Errorf("step %d: reopen: %v", i, err)
			return
		}
		if (f2.df.ext != nil) != (r.f.df.ext != nil) {
			t.Errorf("step %d: reopened on the other backend", i)
		}
		if f2.Size() != int64(len(want)) {
			t.Errorf("step %d: reopened size = %d, reference %d", i, f2.Size(), len(want))
		}
		r.readBack(p, i, f2, 0, len(want)+4096, want)
		r.readBack(p, i, f2, int64(len(want))/2, len(want), want)
		r.readBack(p, i, f2, int64(len(want)), 1, want)
		f2.Close(p)
	}
	r.check(i)
}

// readBack reads n bytes at off and holds the result to want[off:], short
// at EOF and empty past it.
func (r *confRun) readBack(p *simnet.Proc, step int, f *File, off int64, n int, want []byte) {
	exp := []byte{}
	if off < int64(len(want)) {
		exp = want[off:]
		if len(exp) > n {
			exp = exp[:n]
		}
	}
	buf := make([]byte, n)
	got, err := f.Pread(p, buf, off)
	if err != nil || got != len(exp) || !bytes.Equal(buf[:got], exp) {
		r.t.Errorf("step %d: pread(%d, %d) = %d bytes, %v; reference has %d (content equal: %v)",
			step, off, n, got, err, len(exp), bytes.Equal(buf[:got], exp))
	}
}

// race fires the racing action against the in-flight flush and updates the
// reference for it.
func (r *confRun) race(p *simnet.Proc, step int, race confRace) {
	cl := r.fx.client
	switch race {
	case raceUnlink:
		if err := cl.Unlink(p, r.path); err != nil {
			r.t.Errorf("step %d: unlink: %v", step, err)
		}
		// The inode is orphaned: the flush may finish, but into no path.
		delete(r.durable, r.path)
		r.path = ""
	case raceRename:
		old := r.path
		r.path = old + ".renamed"
		if err := cl.Rename(p, old, r.path); err != nil {
			r.t.Errorf("step %d: rename: %v", step, err)
		}
		r.durable[r.path] = r.durable[old]
		// A new file at the old name must not be touched by the old inode's
		// flush landing.
		g, err := cl.OpenFile(p, old, true, r.f.df.ext != nil)
		if err != nil {
			r.t.Errorf("step %d: re-create: %v", step, err)
			return
		}
		g.Write(p, []byte("fresh"))
		if err := g.Sync(p); err != nil {
			r.t.Errorf("step %d: sync of the re-created file: %v", step, err)
		}
		r.durable[old] = []byte("fresh")
	}
}

func TestBackendConformance(t *testing.T) {
	for _, sc := range confScripts {
		for _, be := range []struct {
			name   string
			extent bool
		}{{"flat", false}, {"extent", true}} {
			sc, extent := sc, be.extent
			t.Run(sc.name+"/"+be.name, func(t *testing.T) {
				fx := newExtFixture(11, confParams())
				r := &confRun{t: t, fx: fx, path: "/conf/f", durable: map[string][]byte{}}
				fx.sim.Go("script", func(p *simnet.Proc) {
					defer fx.sim.Stop()
					r.onNode(p, func(p *simnet.Proc) {
						var err error
						if r.f, err = fx.client.OpenFile(p, r.path, true, extent); err != nil {
							t.Errorf("create: %v", err)
						} else if _, isExt := r.f.b.(*extentBackend); isExt != extent {
							t.Errorf("created on %T", r.f.b)
						}
					})
					r.durable[r.path] = nil
					for i := 0; i < len(sc.steps) && !t.Failed(); i++ {
						r.step(p, i, sc.steps[i])
					}
				})
				run(t, fx.sim)
			})
		}
	}
}
