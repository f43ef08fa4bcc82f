// Package litedb is the SQLite-style embedded transactional store ported to
// SplitFT (§4.7). It is page-based: keys hash to fixed-size pages of a
// database file on the dfs. Every update transaction appends a full page
// image as a frame to a write-ahead log that is used as a circular buffer:
// when the WAL fills, a checkpoint writes all dirty pages back to the
// database file and the WAL restarts from offset zero with a new salt —
// the overwrite-based log reclamation of Table 2, and the reason NCL's
// recovery must copy whole regions rather than log tails (Fig 7ii).
//
// Frames carry a salt and a CRC, so recovery applies exactly the frames of
// the newest WAL generation and stops at the first torn frame. Frames are
// page images, so replay is idempotent (replaying an already-checkpointed
// generation is harmless).
//
// The store runs in exclusive locking mode (§5 setup): one transaction at a
// time, no cross-connection locking overhead. The SplitFT port is the
// O_NCL flag on the WAL open call.
package litedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"splitft/internal/apps/applog"
	"splitft/internal/core"
	"splitft/internal/model"
	"splitft/internal/simnet"
)

// Durability selects the evaluation configuration (see applog).
type Durability = applog.Durability

// SplitFT keeps the WAL in near-compute logs.
const SplitFT = applog.SplitFT

// pageSize is the database page (and WAL frame payload) size.
const pageSize = 4096

// Config tunes the store. NPages fixes the database geometry and must match
// between Open and Recover (it is schema, not state).
type Config struct {
	Path       string
	Durability Durability
	NPages     int
	// WALBytes is the circular WAL capacity (and ncl region size).
	WALBytes int64
	// LiteDBCosts is the per-transaction CPU cost model; the constants live
	// in internal/model and the fields promote (cfg.TxnCPU etc.).
	model.LiteDBCosts
}

// DefaultConfig returns simulation-scaled settings; CPU costs come from the
// baseline profile.
func DefaultConfig() Config {
	return Config{
		Path:        "/lite/data.db",
		Durability:  SplitFT,
		NPages:      2048,
		WALBytes:    4 << 20,
		LiteDBCosts: model.Baseline().Apps.LiteDB,
	}
}

const (
	frameHdrLen = 24 // [8B pageID][8B salt][4B crc][4B reserved]
	frameSz     = frameHdrLen + pageSize
)

// ErrPageFull is returned when a page cannot hold its hashed keys; size the
// database with more pages.
var ErrPageFull = errors.New("litedb: page overflow")

// DB is an open database.
type DB struct {
	fs   *core.FS
	node *simnet.Node
	cfg  Config

	mu simnet.Mutex // exclusive locking mode: one txn at a time

	dbFile core.File
	wal    core.File
	dirty  map[int][]byte // pageID -> current page image (not yet checkpointed)
	salt   uint64
	walOff int64

	// Stats.
	Txns        int64
	Reads       int64
	Checkpoints int64
}

func (db *DB) walPath() string { return db.cfg.Path + "-wal" }

// newDB opens (creating if absent) the database file.
func newDB(p *simnet.Proc, fs *core.FS, cfg Config) (*DB, error) {
	db := &DB{fs: fs, node: fs.Node(), cfg: cfg, dirty: make(map[int][]byte), salt: 1}
	f, err := fs.OpenFile(p, cfg.Path, core.O_CREATE|core.O_EXTENT, 0)
	if err != nil {
		return nil, err
	}
	db.dbFile = f
	return db, nil
}

// createWAL creates the circular WAL: the SplitFT port is the O_NCL bit
// LogFlags sets (no append-only hint — frames are overwritten in place).
func (db *DB) createWAL(p *simnet.Proc) (err error) {
	db.wal, err = db.fs.OpenFile(p, db.walPath(), db.cfg.Durability.LogFlags(false), db.cfg.WALBytes)
	return err
}

// Open creates a fresh database.
func Open(p *simnet.Proc, fs *core.FS, cfg Config) (*DB, error) {
	db, err := newDB(p, fs, cfg)
	if err != nil {
		return nil, err
	}
	if err := db.createWAL(p); err != nil {
		return nil, err
	}
	return db, nil
}

func (db *DB) pageOf(key string) int {
	return int(crc32.ChecksumIEEE([]byte(key))) % db.cfg.NPages
}

// readPage returns the current image of a page: the dirty copy if present,
// else the database file content (zero page if never written).
func (db *DB) readPage(p *simnet.Proc, id int) ([]byte, error) {
	if img, ok := db.dirty[id]; ok {
		return img, nil
	}
	img := make([]byte, pageSize)
	if _, err := db.dbFile.Pread(p, img, int64(id)*pageSize); err != nil {
		return nil, err
	}
	return img, nil
}

// Page content: [2B count] then entries [2B klen][2B vlen][key][value],
// unordered (linear scan within a page, as leaf cells would be).
func pageGet(img []byte, key string) ([]byte, bool) {
	count := int(binary.LittleEndian.Uint16(img[0:2]))
	pos := 2
	for i := 0; i < count; i++ {
		klen := int(binary.LittleEndian.Uint16(img[pos : pos+2]))
		vlen := int(binary.LittleEndian.Uint16(img[pos+2 : pos+4]))
		pos += 4
		k := string(img[pos : pos+klen])
		pos += klen
		if k == key {
			out := make([]byte, vlen)
			copy(out, img[pos:pos+vlen])
			return out, true
		}
		pos += vlen
	}
	return nil, false
}

func pageSet(img []byte, key string, value []byte) ([]byte, error) {
	type cell struct {
		k string
		v []byte
	}
	count := int(binary.LittleEndian.Uint16(img[0:2]))
	cells := make([]cell, 0, count+1)
	pos := 2
	for i := 0; i < count; i++ {
		klen := int(binary.LittleEndian.Uint16(img[pos : pos+2]))
		vlen := int(binary.LittleEndian.Uint16(img[pos+2 : pos+4]))
		pos += 4
		k := string(img[pos : pos+klen])
		pos += klen
		v := img[pos : pos+vlen]
		pos += vlen
		if k != key {
			cells = append(cells, cell{k: k, v: v})
		}
	}
	if value != nil {
		cells = append(cells, cell{k: key, v: value})
	}
	out := make([]byte, len(img))
	need := 2
	for _, c := range cells {
		need += 4 + len(c.k) + len(c.v)
	}
	if need > len(out) {
		return nil, fmt.Errorf("%w: %d bytes needed in a %d-byte page", ErrPageFull, need, len(out))
	}
	binary.LittleEndian.PutUint16(out[0:2], uint16(len(cells)))
	pos = 2
	for _, c := range cells {
		binary.LittleEndian.PutUint16(out[pos:pos+2], uint16(len(c.k)))
		binary.LittleEndian.PutUint16(out[pos+2:pos+4], uint16(len(c.v)))
		pos += 4
		copy(out[pos:], c.k)
		pos += len(c.k)
		copy(out[pos:], c.v)
		pos += len(c.v)
	}
	return out, nil
}

// Get runs a read transaction.
func (db *DB) Get(p *simnet.Proc, key string) ([]byte, bool, error) {
	db.mu.Lock(p)
	defer db.mu.Unlock(p)
	db.node.CPU().Use(p, db.cfg.ReadCPU)
	img, err := db.readPage(p, db.pageOf(key))
	if err != nil {
		return nil, false, err
	}
	db.Reads++
	v, ok := pageGet(img, key)
	return v, ok, nil
}

// Set runs an update transaction: modify the page, append a WAL frame
// (durable per configuration), and keep the page dirty until checkpoint.
func (db *DB) Set(p *simnet.Proc, key string, value []byte) error {
	return db.update(p, key, value)
}

// Delete removes a key.
func (db *DB) Delete(p *simnet.Proc, key string) error {
	return db.update(p, key, nil)
}

func (db *DB) update(p *simnet.Proc, key string, value []byte) error {
	db.mu.Lock(p)
	defer db.mu.Unlock(p)
	p.Sleep(db.cfg.TxnCPU)
	id := db.pageOf(key)
	img, err := db.readPage(p, id)
	if err != nil {
		return err
	}
	newImg, err := pageSet(img, key, value)
	if err != nil {
		return err
	}
	if err := db.appendFrame(p, id, newImg); err != nil {
		return err
	}
	db.dirty[id] = newImg
	db.Txns++
	return nil
}

// appendFrame writes one page image to the circular WAL, checkpointing
// first if the frame would not fit.
func (db *DB) appendFrame(p *simnet.Proc, id int, img []byte) error {
	if db.walOff+frameSz > db.cfg.WALBytes {
		if err := db.checkpointLocked(p); err != nil {
			return err
		}
	}
	frame := make([]byte, frameSz)
	binary.LittleEndian.PutUint64(frame[0:8], uint64(id))
	binary.LittleEndian.PutUint64(frame[8:16], db.salt)
	binary.LittleEndian.PutUint32(frame[16:20], crc32.ChecksumIEEE(img))
	copy(frame[frameHdrLen:], img)
	if _, err := db.wal.Pwrite(p, frame, db.walOff); err != nil {
		return err
	}
	if err := db.cfg.Durability.Commit(p, db.wal); err != nil {
		return err
	}
	db.walOff += frameSz
	return nil
}

// checkpointLocked writes every dirty page into the database file, syncs
// it, and restarts the WAL at offset zero under a new salt — the overwrite
// reclaim. Caller holds db.mu.
func (db *DB) checkpointLocked(p *simnet.Proc) error {
	for _, id := range applog.SortedKeys(db.dirty) {
		if _, err := db.dbFile.Pwrite(p, db.dirty[id], int64(id)*pageSize); err != nil {
			return err
		}
	}
	if err := db.dbFile.Sync(p); err != nil {
		return err
	}
	db.dirty = make(map[int][]byte)
	db.salt++
	db.walOff = 0
	db.Checkpoints++
	return nil
}

// Close releases file handles.
func (db *DB) Close(p *simnet.Proc) {
	db.dbFile.Close(p)
	db.wal.Close(p)
}

// ---- Recovery ----

// Recover rebuilds the database after a crash: open the database file,
// recover the WAL (from NCL peers in SplitFT mode), replay the newest
// generation of frames, then checkpoint and restart the WAL cleanly.
func Recover(p *simnet.Proc, fs *core.FS, cfg Config) (*DB, error) {
	db, err := newDB(p, fs, cfg)
	if err != nil {
		return nil, err
	}
	// Reopen (NCL recovery in SplitFT mode), replay the newest generation,
	// and keep writing into the same WAL from offset zero under a fresh salt
	// — old frames are simply overwritten, exactly the circular reuse the
	// file saw in normal operation. Only the answer "no such file" means a
	// fresh WAL: any other failure to reopen fails the recovery, because a
	// WAL that is there but was not replayed would be overwritten.
	switch w, err := cfg.Durability.Reopen(p, fs, db.walPath()); {
	case err == nil:
		salt, err := db.replayWAL(p, w)
		if err != nil {
			w.Close(p)
			return nil, fmt.Errorf("litedb: replay %s: %w", db.walPath(), err)
		}
		db.salt, db.wal = salt+1, w
	case errors.Is(err, core.ErrNotExist):
		if err := db.createWAL(p); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	// Make the replayed state durable so the old generation is disposable.
	if len(db.dirty) > 0 {
		if err := db.checkpointLocked(p); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// replayWAL applies the frames of the newest WAL generation (the salt of
// frame zero) in order, stopping at a salt change or CRC failure. Frames
// are page images, so replay is idempotent. It returns the largest salt
// seen so the new generation is strictly newer. A WAL that cannot be read
// fails the recovery: replayed as if empty, it would be overwritten.
func (db *DB) replayWAL(p *simnet.Proc, w core.File) (uint64, error) {
	data, err := applog.ReadLog(p, w)
	if err != nil {
		return 0, err
	}
	if len(data) < frameSz {
		return db.salt, nil
	}
	gen := binary.LittleEndian.Uint64(data[8:16])
	maxSalt := gen
	for ; len(data) >= frameSz; data = data[frameSz:] {
		fr := data[:frameSz]
		id := int(binary.LittleEndian.Uint64(fr[0:8]))
		salt := binary.LittleEndian.Uint64(fr[8:16])
		crc := binary.LittleEndian.Uint32(fr[16:20])
		if salt > maxSalt {
			maxSalt = salt
		}
		img := fr[frameHdrLen:]
		if salt != gen || crc32.ChecksumIEEE(img) != crc || id < 0 || id >= db.cfg.NPages {
			break
		}
		pg := make([]byte, pageSize)
		copy(pg, img)
		db.dirty[id] = pg
	}
	return maxSalt, nil
}

// WAL returns the write-ahead-log file.
func (db *DB) WAL() core.File { return db.wal }
