// Package redstore is the Redis-style data-structure store ported to
// SplitFT (§4.7). Like Redis it runs a single-threaded command loop: every
// request — reads included — passes through one processing proc, which is
// what produces the head-of-line blocking the paper observes in strong-app
// DFT under YCSB (§5.3): reads queue behind writes waiting on fsyncs.
//
// Durability uses an append-only file (AOF). Pipelined commands arriving
// while the loop is busy are batched into one AOF append. When the AOF
// outgrows its limit, a background snapshot writes the dataset as an RDB
// file to the dfs and the AOF is deleted and recreated (delete-based
// reclamation, Table 2).
//
// The SplitFT port is the O_NCL flag on the AOF open call.
package redstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"splitft/internal/apps/applog"
	"splitft/internal/core"
	"splitft/internal/model"
	"splitft/internal/simnet"
)

// batchMax bounds how many pipelined commands one loop iteration takes.
const batchMax = 32

// rdbParseBW is the rate (bytes/s) at which recovery decodes a snapshot.
const rdbParseBW = 200e6

// Config tunes the store.
type Config struct {
	Dir        string
	Durability applog.Durability
	// AOFRewriteBytes triggers an RDB snapshot + AOF swap.
	AOFRewriteBytes int64
	// AOFRegion is the ncl region capacity for the AOF.
	AOFRegion int64
	// RedStoreCosts is the CPU/copy cost model; the constants live in
	// internal/model and the fields promote (cfg.OpCPU etc.).
	model.RedStoreCosts
}

// DefaultConfig returns simulation-scaled settings; CPU costs come from the
// baseline profile.
func DefaultConfig() Config {
	return Config{
		Dir:             "/redis",
		Durability:      applog.SplitFT,
		AOFRewriteBytes: 8 << 20,
		AOFRegion:       16 << 20,
		RedStoreCosts:   model.Baseline().Apps.RedStore,
	}
}

type opKind int

const (
	opSet opKind = iota
	opGet
	opDel
)

type request struct {
	kind  opKind
	key   string
	value []byte
	reply *simnet.Chan[response]
}

type response struct {
	value []byte
	found bool
	err   error
}

// Store is a running instance.
type Store struct {
	fs   *core.FS
	node *simnet.Node
	cfg  Config

	data   map[string][]byte
	reqCh  *simnet.Chan[request]
	aof    core.File
	aofNum int
	// retired lists the AOFs older than the active one, oldest first. Their
	// content is durable nowhere else until a snapshot taken after them is:
	// that snapshot's reclaim unlinks them all.
	retired []string
	closed  bool

	snapshotting bool

	// Stats.
	Ops       int64
	Batches   int64
	Snapshots int64
}

// aofFormat names AOF number %d; Recover finds the survivors by it.
func aofFormat(dir string) string { return dir + "/appendonly-%04d.aof" }

func (s *Store) aofPath(n int) string { return fmt.Sprintf(aofFormat(s.cfg.Dir), n) }
func (s *Store) rdbPath(n int) string { return fmt.Sprintf("%s/dump-%04d.rdb", s.cfg.Dir, n) }

// openAOF creates AOF number aofNum; the SplitFT port is the O_NCL bit
// LogFlags sets.
func (s *Store) openAOF(p *simnet.Proc) (core.File, error) {
	return s.fs.OpenFile(p, s.aofPath(s.aofNum), s.cfg.Durability.LogFlags(true), s.cfg.AOFRegion)
}

func newStore(fs *core.FS, cfg Config) *Store {
	return &Store{
		fs:    fs,
		node:  fs.Node(),
		cfg:   cfg,
		data:  make(map[string][]byte),
		reqCh: simnet.NewChan[request](fs.Node().Sim()),
	}
}

// start opens AOF number aofNum as the active one and runs the command loop.
func (s *Store) start(p *simnet.Proc) (*Store, error) {
	aof, err := s.openAOF(p)
	if err != nil {
		return nil, err
	}
	s.aof = aof
	p.GoOn(s.node, "redstore-loop", s.commandLoop)
	return s, nil
}

// Open starts a fresh store.
func Open(p *simnet.Proc, fs *core.FS, cfg Config) (*Store, error) {
	s := newStore(fs, cfg)
	s.aofNum = 1
	return s.start(p)
}

// Set stores key=value, durably per the configuration, and returns once the
// command loop acknowledged it.
func (s *Store) Set(p *simnet.Proc, key string, value []byte) error {
	v := make([]byte, len(value))
	copy(v, value)
	r := s.do(p, request{kind: opSet, key: key, value: v})
	return r.err
}

// Get returns the value for key.
func (s *Store) Get(p *simnet.Proc, key string) ([]byte, bool, error) {
	r := s.do(p, request{kind: opGet, key: key})
	return r.value, r.found, r.err
}

// Del removes key.
func (s *Store) Del(p *simnet.Proc, key string) error {
	r := s.do(p, request{kind: opDel, key: key})
	return r.err
}

func (s *Store) do(p *simnet.Proc, r request) response {
	r.reply = simnet.NewChan[response](s.node.Sim())
	s.reqCh.Send(p, r)
	resp, ok := r.reply.Recv(p)
	if !ok {
		return response{err: errors.New("redstore: closed")}
	}
	return resp
}

// commandLoop is the single thread: it drains up to batchMax pipelined
// requests, processes them, persists the write commands as one AOF record,
// and replies. Reads wait their turn behind writes — by design.
func (s *Store) commandLoop(p *simnet.Proc) {
	for {
		first, ok := s.reqCh.Recv(p)
		if !ok {
			return
		}
		batch := []request{first}
		for len(batch) < batchMax {
			r, ok := s.reqCh.TryRecv(p)
			if !ok {
				break
			}
			batch = append(batch, r)
		}
		// Per-command CPU (single threaded).
		p.Sleep(time.Duration(len(batch)) * s.cfg.OpCPU)

		// Persist the write commands.
		var writes []request
		for _, r := range batch {
			if r.kind != opGet {
				writes = append(writes, r)
			}
		}
		var err error
		if len(writes) > 0 {
			rec := applog.Encode(len(writes), func(i int) applog.Op {
				w := &writes[i]
				return applog.Op{Key: w.key, Value: w.value, Del: w.kind == opDel}
			})
			if _, err = s.aof.Write(p, rec); err == nil {
				err = s.cfg.Durability.Commit(p, s.aof)
			}
		}
		// Apply and reply.
		for _, r := range batch {
			resp := response{err: err}
			if err == nil {
				switch r.kind {
				case opSet:
					s.data[r.key] = r.value
				case opDel:
					delete(s.data, r.key)
				case opGet:
					v, found := s.data[r.key]
					resp.value, resp.found = v, found
				}
			}
			r.reply.Send(p, resp)
		}
		s.Ops += int64(len(batch))
		s.Batches++

		if len(writes) > 0 && s.aof.Size() > s.cfg.AOFRewriteBytes && !s.snapshotting {
			s.startSnapshot(p)
		}
	}
}

// startSnapshot forks the dataset (copy charged to the loop, like fork COW
// pressure) and writes it to an RDB file in the background; on completion
// every older AOF is deleted; a fresh one absorbs further updates meanwhile.
func (s *Store) startSnapshot(p *simnet.Proc) {
	s.snapshotting = true
	snap := make(map[string][]byte, len(s.data))
	var bytes int64
	for k, v := range s.data {
		snap[k] = v
		bytes += int64(len(k) + len(v))
	}
	p.Sleep(time.Duration(float64(bytes) / s.cfg.SnapshotCopyBW * float64(time.Second)))
	oldAOF := s.aof
	covered := append(s.retired, s.aofPath(s.aofNum))
	s.aofNum++
	newAOF, err := s.openAOF(p)
	if err != nil {
		s.snapshotting = false
		s.aofNum--
		return
	}
	s.aof = newAOF
	s.retired = nil
	rdbNum := s.aofNum
	p.GoOn(s.node, "redstore-snapshot", func(sp *simnet.Proc) {
		defer func() { s.snapshotting = false }()
		if err := s.writeRDB(sp, rdbNum, snap); err != nil {
			s.retired = covered // still the only durable copy
			return
		}
		// RDB durable: reclaim every AOF it covers, oldest first (so the
		// survivors of a crash in here are contiguous), and the previous RDB.
		oldAOF.Close(sp)
		for _, path := range covered {
			s.fs.Unlink(sp, path) //nolint:errcheck
		}
		if rdbNum > 1 {
			s.fs.Unlink(sp, s.rdbPath(rdbNum-1)) //nolint:errcheck
		}
		s.Snapshots++
	})
}

// writeRDB serializes the snapshot to the dfs: one large background write.
func (s *Store) writeRDB(p *simnet.Proc, num int, snap map[string][]byte) error {
	keys := applog.SortedKeys(snap)
	size := 8
	for _, k := range keys {
		size += 8 + len(k) + len(snap[k])
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(len(keys)))
	pos := 8
	for _, k := range keys {
		binary.LittleEndian.PutUint32(buf[pos:pos+4], uint32(len(k)))
		binary.LittleEndian.PutUint32(buf[pos+4:pos+8], uint32(len(snap[k])))
		pos += 8
		copy(buf[pos:], k)
		pos += len(k)
		copy(buf[pos:], snap[k])
		pos += len(snap[k])
	}
	f, err := s.fs.OpenFile(p, s.rdbPath(num), core.O_CREATE|core.O_EXTENT, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(p, buf); err != nil {
		return err
	}
	if err := f.Sync(p); err != nil {
		return err
	}
	return f.Close(p)
}

// Close shuts the command loop down.
func (s *Store) Close(p *simnet.Proc) {
	if !s.closed {
		s.closed = true
		s.reqCh.Close(p)
	}
}

// ---- Recovery ----

// Recover rebuilds the store from the newest complete RDB snapshot plus the
// surviving AOFs — from NCL peers in SplitFT mode, from the dfs otherwise.
// The replayed AOFs stay where they are (retired): their content is in
// memory only, so unlinking them here would lose it to a second crash.
func Recover(p *simnet.Proc, fs *core.FS, cfg Config) (*Store, error) {
	s := newStore(fs, cfg)
	// The newest complete RDB: a crash may have cut a newer one short, and
	// then the one before it and the AOFs since are all still there.
	rdbs := fs.ListDFS(cfg.Dir + "/dump-")
	for i, complete := len(rdbs)-1, false; i >= 0 && !complete; i-- {
		var err error
		if complete, err = s.loadRDB(p, rdbs[i]); err != nil {
			return nil, err
		}
	}
	if len(rdbs) > 0 {
		fmt.Sscanf(rdbs[len(rdbs)-1][len(cfg.Dir)+1:], "dump-%04d.rdb", &s.aofNum) //nolint:errcheck
	}
	// Replay the surviving AOFs, oldest first.
	aofs, err := cfg.Durability.Survivors(p, fs, aofFormat(cfg.Dir))
	if err != nil {
		return nil, err
	}
	for _, aof := range aofs {
		data, err := cfg.Durability.ReadSurvivor(p, fs, aof.Path)
		if err != nil {
			return nil, fmt.Errorf("redstore: replay %s: %w", aof.Path, err)
		}
		applog.Scan(data, func(o applog.Op) {
			if o.Del {
				delete(s.data, o.Key)
			} else {
				s.data[o.Key] = o.Value
			}
		})
		s.retired = append(s.retired, aof.Path)
		if aof.Seq > s.aofNum {
			s.aofNum = aof.Seq
		}
	}
	s.aofNum++
	return s.start(p)
}

// loadRDB loads the snapshot at path and reports whether it was complete
// (its entries add up to the header's count and the file's length); an
// incomplete one loads nothing.
func (s *Store) loadRDB(p *simnet.Proc, path string) (complete bool, err error) {
	f, err := s.fs.OpenFile(p, path, 0, 0)
	if err != nil {
		return false, err
	}
	defer f.Close(p)
	buf := make([]byte, f.Size())
	if _, err := f.Pread(p, buf, 0); err != nil {
		return false, err
	}
	p.Sleep(time.Duration(float64(len(buf)) / rdbParseBW * float64(time.Second)))
	if len(buf) < 8 {
		return false, nil
	}
	data := make(map[string][]byte)
	pos := 8
	for n := binary.LittleEndian.Uint64(buf[0:8]); n > 0; n-- {
		if pos+8 > len(buf) {
			return false, nil
		}
		klen := int(binary.LittleEndian.Uint32(buf[pos : pos+4]))
		vlen := int(binary.LittleEndian.Uint32(buf[pos+4 : pos+8]))
		pos += 8
		if pos+klen+vlen > len(buf) {
			return false, nil
		}
		val := make([]byte, vlen)
		copy(val, buf[pos+klen:pos+klen+vlen])
		data[string(buf[pos:pos+klen])] = val
		pos += klen + vlen
	}
	if pos != len(buf) {
		return false, nil
	}
	s.data = data
	return true, nil
}

// AOF returns the active append-only file (benches size their fill by it).
func (s *Store) AOF() core.File { return s.aof }
