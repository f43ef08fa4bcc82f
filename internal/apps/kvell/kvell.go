// Package kvell is a KVell-style key-value store: unlike the LSM stores it
// keeps NO write-ahead log — values live in immutable chunk files and an
// in-memory index maps keys to their locations. The paper's §6 observes
// that such no-log designs issue many small random writes, which perform
// poorly in the DFT setting, and suggests NCL "can act as a faster tier to
// absorb the random writes and then write large chunks to dfs".
//
// This package implements exactly that extension. The journal that absorbs
// puts follows the same applog.Durability discipline as the logged stores:
//
//   - Strong ("dft-sync"): every put appends to the open chunk and fsyncs
//     it — durable but slow (a dfs round trip per put).
//   - Weak ("dft-async"): appends are buffered; acknowledged puts can be
//     lost.
//   - SplitFT ("ncl-tier"): puts are absorbed into an NCL journal
//     (microsecond durability); when the journal fills, its live records
//     are written to the dfs as one large chunk and the journal is released
//     — small random writes become large sequential ones, with no
//     durability gap.
//
// Chunk layout: repeated [4B klen][4B vlen][key][value], then a footer
// index ([4B count] repeated [4B klen][key][8B off][4B vlen]) and a trailer
// [8B indexOff][8B magic]. Incomplete chunks (crash mid-write) fail the
// magic check and are ignored at recovery; their content is still safe —
// under SplitFT it remains in the journal until the chunk is durable.
package kvell

import (
	"encoding/binary"
	"errors"
	"fmt"

	"splitft/internal/apps/applog"
	"splitft/internal/core"
	"splitft/internal/model"
	"splitft/internal/simnet"
)

// Config tunes the store.
type Config struct {
	Dir        string
	Durability applog.Durability
	// JournalBytes triggers a chunk flush (SplitFT) or chunk rotation
	// (DFT configurations).
	JournalBytes int64
	// JournalRegion is the NCL region capacity.
	JournalRegion int64
	// KVellCosts is the per-op CPU cost model; the constants live in
	// internal/model and the fields promote (cfg.PutCPU etc.).
	model.KVellCosts
}

// DefaultConfig returns simulation-scaled settings; CPU costs come from the
// baseline profile.
func DefaultConfig() Config {
	return Config{
		Dir:           "/kvell",
		Durability:    applog.SplitFT,
		JournalBytes:  4 << 20,
		JournalRegion: 10 << 20,
		KVellCosts:    model.Baseline().Apps.KVell,
	}
}

const (
	chunkMagic   = 0x4b56454c4c4f47 // "KVELLOG"
	chunkTrailer = 16
)

var errBadChunk = errors.New("kvell: invalid or incomplete chunk")

// location says where a key's current value lives.
type location struct {
	journal bool
	chunk   int // chunk id when !journal
	off     int64
	vlen    int
}

// Store is a running instance.
type Store struct {
	fs   *core.FS
	node *simnet.Node
	cfg  Config

	mu simnet.Mutex

	index map[string]location

	// Journal tier (SplitFT) or open chunk buffer (DFT configurations).
	journal    core.File
	journalNum int
	jPending   map[string][]byte // live records not yet in a durable chunk

	chunks   map[int]core.File
	chunkSeq int

	// flushing holds the records of the journal being written out as a
	// chunk (nil when idle): the index still calls them journal-resident.
	flushing map[string][]byte

	// Stats.
	Puts, Gets, Flushes int64
}

// journalFormat names journal number %d; Recover finds the survivors by it.
func journalFormat(dir string) string { return dir + "/journal-%04d.jnl" }

func (s *Store) journalPath(n int) string { return fmt.Sprintf(journalFormat(s.cfg.Dir), n) }
func (s *Store) chunkPath(n int) string   { return fmt.Sprintf("%s/chunk-%06d.kv", s.cfg.Dir, n) }

func newStore(fs *core.FS, cfg Config) *Store {
	return &Store{
		fs:       fs,
		node:     fs.Node(),
		cfg:      cfg,
		index:    make(map[string]location),
		jPending: make(map[string][]byte),
		chunks:   make(map[int]core.File),
	}
}

// Open creates a fresh store.
func Open(p *simnet.Proc, fs *core.FS, cfg Config) (*Store, error) {
	s := newStore(fs, cfg)
	if err := s.openJournal(p); err != nil {
		return nil, err
	}
	return s, nil
}

// openJournal opens the write-absorbing tier: an ncl file under SplitFT (the
// O_NCL bit LogFlags sets), a plain dfs file otherwise.
func (s *Store) openJournal(p *simnet.Proc) error {
	s.journalNum++
	j, err := s.fs.OpenFile(p, s.journalPath(s.journalNum), s.cfg.Durability.LogFlags(true), s.cfg.JournalRegion)
	if err != nil {
		return err
	}
	s.journal = j
	return nil
}

func encodeRecord(key string, value []byte) []byte {
	buf := make([]byte, 8+len(key)+len(value))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(value)))
	copy(buf[8:], key)
	copy(buf[8+len(key):], value)
	return buf
}

// absorb appends key=value to the journal, durably per the configuration,
// and points the index at it.
func (s *Store) absorb(p *simnet.Proc, key string, value []byte) error {
	off := s.journal.Size()
	if _, err := s.journal.Write(p, encodeRecord(key, value)); err != nil {
		return err
	}
	if err := s.cfg.Durability.Commit(p, s.journal); err != nil {
		return err
	}
	s.index[key] = location{journal: true, off: off + 8 + int64(len(key)), vlen: len(value)}
	return nil
}

// Put stores key=value. Under SplitFT and Strong the put is durable when Put
// returns; under Weak it is merely buffered.
func (s *Store) Put(p *simnet.Proc, key string, value []byte) error {
	s.mu.Lock(p)
	defer s.mu.Unlock(p)
	p.Sleep(s.cfg.PutCPU)
	if err := s.absorb(p, key, value); err != nil {
		return err
	}
	v := make([]byte, len(value))
	copy(v, value)
	s.jPending[key] = v
	s.Puts++
	if s.journal.Size() >= s.cfg.JournalBytes && s.flushing == nil {
		s.startFlush(p)
	}
	return nil
}

// Get returns the value for key.
func (s *Store) Get(p *simnet.Proc, key string) ([]byte, bool, error) {
	s.mu.Lock(p)
	loc, ok := s.index[key]
	if !ok {
		s.mu.Unlock(p)
		return nil, false, nil
	}
	s.Gets++
	if loc.journal {
		v, ok := s.jPending[key]
		if !ok {
			v = s.flushing[key]
		}
		s.mu.Unlock(p)
		s.node.CPU().Use(p, s.cfg.GetCPU)
		return v, true, nil
	}
	chunk := s.chunks[loc.chunk]
	s.mu.Unlock(p)
	s.node.CPU().Use(p, s.cfg.GetCPU)
	buf := make([]byte, loc.vlen)
	if _, err := chunk.Pread(p, buf, loc.off); err != nil {
		return nil, false, err
	}
	return buf, true, nil
}

// startFlush converts the journal's live records into one large sequential
// chunk write. The journal stays intact (and recoverable) until the chunk
// is durable; only then is it released. Caller holds s.mu.
func (s *Store) startFlush(p *simnet.Proc) {
	oldJournal := s.journal
	oldPath := s.journalPath(s.journalNum)
	if err := s.openJournal(p); err != nil {
		// Keep absorbing into the old journal; retry on the next put.
		s.journal = oldJournal
		s.journalNum--
		return
	}
	snap := s.jPending
	s.flushing, s.jPending = snap, make(map[string][]byte)
	s.chunkSeq++
	chunkID := s.chunkSeq
	p.GoOn(s.node, "kvell-flush", func(fp *simnet.Proc) {
		// The next flush waits until this one has released its journal.
		defer func() { s.flushing = nil }()
		f, idx, err := writeChunk(fp, s.fs, s.chunkPath(chunkID), snap)
		s.mu.Lock(fp)
		if err != nil {
			// Still journal-resident (the old journal keeps them durable).
			for key, v := range snap {
				if _, superseded := s.jPending[key]; !superseded {
					s.jPending[key] = v
				}
			}
			s.mu.Unlock(fp)
			return
		}
		s.chunks[chunkID] = f
		// Repoint index entries that still refer to the flushed values
		// (a newer put may have superseded them in the new journal).
		for key, ent := range idx {
			if cur, ok := s.index[key]; ok && cur.journal {
				if _, superseded := s.jPending[key]; superseded {
					continue
				}
				cur.journal = false
				cur.chunk = chunkID
				cur.off = ent.off
				cur.vlen = ent.vlen
				s.index[key] = cur
			}
		}
		s.Flushes++
		s.mu.Unlock(fp)
		// Chunk durable: the old journal is disposable.
		oldJournal.Close(fp)
		s.fs.Unlink(fp, oldPath) //nolint:errcheck
	})
}

type chunkEntry struct {
	off  int64
	vlen int
}

// writeChunk serializes records (sorted by key) with a footer index and
// syncs the file.
func writeChunk(p *simnet.Proc, fs *core.FS, path string, records map[string][]byte) (core.File, map[string]chunkEntry, error) {
	keys := applog.SortedKeys(records)
	size := 0
	for _, k := range keys {
		size += 8 + len(k) + len(records[k])
	}
	data := make([]byte, 0, size)
	idx := make(map[string]chunkEntry, len(keys))
	for _, k := range keys {
		v := records[k]
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(k)))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(v)))
		idx[k] = chunkEntry{off: int64(len(data)) + 8 + int64(len(k)), vlen: len(v)}
		data = append(data, hdr[:]...)
		data = append(data, k...)
		data = append(data, v...)
	}
	indexOff := int64(len(data))
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(keys)))
	data = append(data, cnt[:]...)
	for _, k := range keys {
		var klen [4]byte
		binary.LittleEndian.PutUint32(klen[:], uint32(len(k)))
		data = append(data, klen[:]...)
		data = append(data, k...)
		var ent [12]byte
		binary.LittleEndian.PutUint64(ent[0:8], uint64(idx[k].off))
		binary.LittleEndian.PutUint32(ent[8:12], uint32(idx[k].vlen))
		data = append(data, ent[:]...)
	}
	var trailer [chunkTrailer]byte
	binary.LittleEndian.PutUint64(trailer[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(trailer[8:16], chunkMagic)
	data = append(data, trailer[:]...)

	f, err := fs.OpenFile(p, path, core.O_CREATE|core.O_EXTENT, 0)
	if err != nil {
		return nil, nil, err
	}
	if _, err := f.Write(p, data); err != nil {
		return nil, nil, err
	}
	if err := f.Sync(p); err != nil {
		return nil, nil, err
	}
	return f, idx, nil
}

// readChunkIndex opens a chunk and parses its footer.
func readChunkIndex(p *simnet.Proc, fs *core.FS, path string) (core.File, map[string]chunkEntry, error) {
	f, err := fs.OpenFile(p, path, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	size := f.Size()
	if size < chunkTrailer {
		return nil, nil, errBadChunk
	}
	var trailer [chunkTrailer]byte
	if _, err := f.Pread(p, trailer[:], size-chunkTrailer); err != nil {
		return nil, nil, err
	}
	if binary.LittleEndian.Uint64(trailer[8:16]) != chunkMagic {
		return nil, nil, errBadChunk
	}
	indexOff := int64(binary.LittleEndian.Uint64(trailer[0:8]))
	if indexOff < 0 || indexOff > size-chunkTrailer {
		return nil, nil, errBadChunk
	}
	meta := make([]byte, size-chunkTrailer-indexOff)
	if _, err := f.Pread(p, meta, indexOff); err != nil {
		return nil, nil, err
	}
	count := int(binary.LittleEndian.Uint32(meta[0:4]))
	pos := 4
	idx := make(map[string]chunkEntry, count)
	for i := 0; i < count; i++ {
		klen := int(binary.LittleEndian.Uint32(meta[pos : pos+4]))
		pos += 4
		key := string(meta[pos : pos+klen])
		pos += klen
		off := int64(binary.LittleEndian.Uint64(meta[pos : pos+8]))
		vlen := int(binary.LittleEndian.Uint32(meta[pos+8 : pos+12]))
		pos += 12
		idx[key] = chunkEntry{off: off, vlen: vlen}
	}
	return f, idx, nil
}

// Recover rebuilds the store: chunk footers rebuild the bulk of the index,
// then surviving journals are replayed over it (newest last). Under SplitFT
// the journals come back from the log peers, so no acknowledged put is lost;
// under Weak whatever the page cache had not written back is gone.
func Recover(p *simnet.Proc, fs *core.FS, cfg Config) (*Store, error) {
	s := newStore(fs, cfg)
	// Chunks, oldest first so newer values win.
	for _, path := range fs.ListDFS(cfg.Dir + "/chunk-") {
		var id int
		if _, err := fmt.Sscanf(path[len(cfg.Dir)+1:], "chunk-%06d.kv", &id); err != nil {
			continue
		}
		f, idx, err := readChunkIndex(p, fs, path)
		if err != nil {
			continue // incomplete chunk: its data is still in a journal
		}
		for key, ent := range idx {
			s.index[key] = location{chunk: id, off: ent.off, vlen: ent.vlen}
		}
		s.chunks[id] = f
		if id > s.chunkSeq {
			s.chunkSeq = id
		}
	}
	// Journals, oldest first.
	journals, err := cfg.Durability.Survivors(p, fs, journalFormat(cfg.Dir))
	if err != nil {
		return nil, err
	}
	for _, j := range journals {
		data, err := cfg.Durability.ReadSurvivor(p, fs, j.Path)
		if err != nil {
			return nil, fmt.Errorf("kvell: replay %s: %w", j.Path, err)
		}
		s.replayJournal(data)
		s.journalNum = j.Seq
	}
	if err := s.openJournal(p); err != nil {
		return nil, err
	}
	// Re-absorb the replayed pending values into the fresh journal, in key
	// order so its bytes are the same run to run, and only then release the
	// old journals: until here they hold the only durable copy.
	for _, key := range applog.SortedKeys(s.jPending) {
		if err := s.absorb(p, key, s.jPending[key]); err != nil {
			return nil, err
		}
	}
	for _, j := range journals {
		fs.Unlink(p, j.Path) //nolint:errcheck
	}
	return s, nil
}

// replayJournal applies intact records; a torn trailing record (crash
// mid-write, never acknowledged) stops the replay.
func (s *Store) replayJournal(data []byte) {
	pos := 0
	for pos+8 <= len(data) {
		klen := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		vlen := int(binary.LittleEndian.Uint32(data[pos+4 : pos+8]))
		if klen == 0 || pos+8+klen+vlen > len(data) {
			return
		}
		key := string(data[pos+8 : pos+8+klen])
		v := make([]byte, vlen)
		copy(v, data[pos+8+klen:pos+8+klen+vlen])
		s.jPending[key] = v
		s.index[key] = location{journal: true, vlen: vlen}
		pos += 8 + klen + vlen
	}
}

// Journal returns the active journal file.
func (s *Store) Journal() core.File { return s.journal }

// Stats snapshot.
type Stats struct {
	Puts, Gets, Flushes int64
	Chunks              int
	JournalBytes        int64
}

// Stats returns internal counters.
func (s *Store) Stats() Stats {
	return Stats{Puts: s.Puts, Gets: s.Gets, Flushes: s.Flushes,
		Chunks: len(s.chunks), JournalBytes: s.journal.Size()}
}
