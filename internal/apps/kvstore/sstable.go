package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"splitft/internal/core"
	"splitft/internal/simnet"
)

// SSTable layout (all integers little endian):
//
//	data:    repeated [4B klen][4B vlen][key][value]   (vlen==MaxUint32: tombstone)
//	bloom:   [4B bits][bitset]
//	index:   [4B count] repeated ([4B klen][key][8B offset])
//	trailer: [8B bloomOff][8B indexOff][8B numEntries][8B magic]
//
// Entries are sorted by key. The sparse index holds every indexIntervalth
// key; a Get reads only the spanned data slice. The trailer's magic makes
// partially written tables (crash during flush/compaction, before fsync)
// detectable and ignorable at recovery.
const (
	ssMagic       = 0x53504c49544654 // "SPLITFT"
	indexInterval = 16
	tombstoneLen  = ^uint32(0)
	trailerLen    = 32
)

var errBadTable = errors.New("kvstore: invalid or incomplete sstable")

type entry struct {
	key   string
	value []byte // nil + tombstone flag encoded via sentinel
	del   bool
}

// bloom is a split-free Bloom filter with double hashing.
type bloom struct {
	bits []byte
	m    uint64
}

func newBloom(n int) *bloom {
	m := uint64(n*10 + 64)
	return &bloom{bits: make([]byte, (m+7)/8), m: m}
}

// bloomHash is FNV-1a over key, computed inline (no hash.Hash64 object),
// and a second hash derived from it for double hashing.
func bloomHash(key string) (uint64, uint64) {
	h1 := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for i := 0; i < len(key); i++ {
		h1 ^= uint64(key[i])
		h1 *= 1099511628211 // FNV 64-bit prime
	}
	h2 := h1>>33 | h1<<31
	return h1, h2 | 1
}

func (b *bloom) add(key string) {
	h1, h2 := bloomHash(key)
	for i := uint64(0); i < 4; i++ {
		bit := (h1 + i*h2) % b.m
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

func (b *bloom) mayContain(key string) bool {
	h1, h2 := bloomHash(key)
	for i := uint64(0); i < 4; i++ {
		bit := (h1 + i*h2) % b.m
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

type indexEntry struct {
	key string
	off int64
}

// ssTable is an open, immutable sorted table backed by a dfs file.
type ssTable struct {
	path    string
	file    core.File
	index   []indexEntry
	filter  *bloom
	entries int64
	dataEnd int64
}

// writeSSTable serializes sorted entries to path on the dfs and syncs it.
// The write is one large sequential IO — exactly the background write class
// SplitFT pushes straight to the dfs (Fig 1) — so it goes to the extent
// plane, where the flush pipelines down append chains.
func writeSSTable(p *simnet.Proc, fs *core.FS, path string, entries []entry) (*ssTable, error) {
	f, err := fs.OpenFile(p, path, core.O_CREATE|core.O_EXTENT, 0)
	if err != nil {
		return nil, err
	}
	data, t := encodeSSTable(entries)
	if _, err := f.Write(p, data); err != nil {
		return nil, err
	}
	if err := f.Sync(p); err != nil {
		return nil, err
	}
	t.path, t.file = path, f
	return t, nil
}

// encodeSSTable lays sorted entries out as one table file, in a buffer
// sized once, and returns it with the table's in-memory metadata.
func encodeSSTable(entries []entry) ([]byte, *ssTable) {
	filter := newBloom(len(entries))
	size := 4 + len(filter.bits) + 4 + trailerLen
	for i, e := range entries {
		size += 8 + len(e.key) + len(e.value)
		if i%indexInterval == 0 {
			size += 4 + len(e.key) + 8
		}
	}
	data := make([]byte, 0, size)
	offs := make([]uint64, 0, (len(entries)+indexInterval-1)/indexInterval)
	le := binary.LittleEndian
	for i, e := range entries {
		if i%indexInterval == 0 {
			offs = append(offs, uint64(len(data)))
		}
		filter.add(e.key)
		vlen := uint32(len(e.value))
		if e.del {
			vlen = tombstoneLen
		}
		data = le.AppendUint32(data, uint32(len(e.key)))
		data = le.AppendUint32(data, vlen)
		data = append(data, e.key...)
		if !e.del {
			data = append(data, e.value...)
		}
	}
	dataEnd := int64(len(data))

	bloomOff := dataEnd
	data = le.AppendUint32(data, uint32(filter.m))
	data = append(data, filter.bits...)

	indexOff := len(data)
	data = le.AppendUint32(data, uint32(len(offs)))
	for i, off := range offs {
		key := entries[i*indexInterval].key
		data = le.AppendUint32(data, uint32(len(key)))
		data = append(data, key...)
		data = le.AppendUint64(data, off)
	}
	index := parseIndex(data[indexOff:])

	data = le.AppendUint64(data, uint64(bloomOff))
	data = le.AppendUint64(data, uint64(indexOff))
	data = le.AppendUint64(data, uint64(len(entries)))
	data = le.AppendUint64(data, ssMagic)
	return data, &ssTable{index: index, filter: filter, entries: int64(len(entries)), dataEnd: dataEnd}
}

// parseIndex decodes a sparse index section. Its keys are substrings of one
// copy of the section: a table's index costs one string, and it pins no
// memory of its writer's (a compaction's entry keys are substrings of its
// inputs' scans).
func parseIndex(sec []byte) []indexEntry {
	str := string(sec)
	count := binary.LittleEndian.Uint32(sec[0:4])
	pos := 4
	index := make([]indexEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		klen := int(binary.LittleEndian.Uint32(sec[pos : pos+4]))
		pos += 4
		key := str[pos : pos+klen]
		pos += klen
		off := int64(binary.LittleEndian.Uint64(sec[pos : pos+8]))
		pos += 8
		index = append(index, indexEntry{key: key, off: off})
	}
	return index
}

// openSSTable opens an existing table, reading its trailer, bloom filter
// and sparse index. Incomplete tables (no valid magic) yield errBadTable.
func openSSTable(p *simnet.Proc, fs *core.FS, path string) (*ssTable, error) {
	f, err := fs.OpenFile(p, path, 0, 0)
	if err != nil {
		return nil, err
	}
	size := f.Size()
	if size < trailerLen {
		return nil, errBadTable
	}
	var trailer [trailerLen]byte
	if _, err := f.Pread(p, trailer[:], size-trailerLen); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(trailer[24:32]) != ssMagic {
		return nil, errBadTable
	}
	bloomOff := int64(binary.LittleEndian.Uint64(trailer[0:8]))
	indexOff := int64(binary.LittleEndian.Uint64(trailer[8:16]))
	numEntries := int64(binary.LittleEndian.Uint64(trailer[16:24]))
	if bloomOff < 0 || indexOff < bloomOff || indexOff > size-trailerLen {
		return nil, errBadTable
	}
	meta := make([]byte, size-trailerLen-bloomOff)
	if _, err := f.Pread(p, meta, bloomOff); err != nil {
		return nil, err
	}
	// Bloom.
	m := binary.LittleEndian.Uint32(meta[0:4])
	filter := &bloom{m: uint64(m), bits: meta[4 : 4+(m+7)/8]}
	return &ssTable{
		path: path, file: f, index: parseIndex(meta[indexOff-bloomOff:]), filter: filter,
		entries: numEntries, dataEnd: bloomOff,
	}, nil
}

// get looks key up in the table, reading only the indexed data slice.
func (t *ssTable) get(p *simnet.Proc, key string) (value []byte, found, deleted bool, err error) {
	if !t.filter.mayContain(key) {
		return nil, false, false, nil
	}
	if len(t.index) == 0 {
		return nil, false, false, nil
	}
	// Binary search: greatest index key <= key.
	lo, hi := 0, len(t.index)-1
	if key < t.index[0].key {
		return nil, false, false, nil
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if t.index[mid].key <= key {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	start := t.index[lo].off
	end := t.dataEnd
	if lo+1 < len(t.index) {
		end = t.index[lo+1].off
	}
	block := make([]byte, end-start)
	if _, err := t.file.Pread(p, block, start); err != nil {
		return nil, false, false, err
	}
	pos := 0
	for pos+8 <= len(block) {
		klen := int(binary.LittleEndian.Uint32(block[pos : pos+4]))
		vlen := binary.LittleEndian.Uint32(block[pos+4 : pos+8])
		pos += 8
		// string(k) in a comparison converts without allocating.
		k := block[pos : pos+klen]
		pos += klen
		if vlen == tombstoneLen {
			if string(k) == key {
				return nil, true, true, nil
			}
			continue
		}
		v := block[pos : pos+int(vlen)]
		pos += int(vlen)
		if string(k) == key {
			out := make([]byte, len(v))
			copy(out, v)
			return out, true, false, nil
		}
		if string(k) > key {
			return nil, false, false, nil
		}
	}
	return nil, false, false, nil
}

// scanAll reads the full table sequentially (compaction input). Returned
// values alias the read buffer (they are never mutated downstream) and keys
// are substrings of one string copy of it, so a scan costs one read buffer
// and one string, not a value copy or a string per key — compaction runs
// often enough that either showed in the alloc gate.
func (t *ssTable) scanAll(p *simnet.Proc) ([]entry, error) {
	data := make([]byte, t.dataEnd)
	if _, err := t.file.Pread(p, data, 0); err != nil {
		return nil, err
	}
	str := string(data)
	out := make([]entry, 0, t.entries)
	pos := 0
	for pos+8 <= len(data) {
		klen := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		vlen := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
		pos += 8
		key := str[pos : pos+klen]
		pos += klen
		if vlen == tombstoneLen {
			out = append(out, entry{key: key, del: true})
			continue
		}
		v := data[pos : pos+int(vlen) : pos+int(vlen)]
		pos += int(vlen)
		out = append(out, entry{key: key, value: v})
	}
	return out, nil
}

func (t *ssTable) String() string {
	return fmt.Sprintf("sstable(%s, %d entries)", t.path, t.entries)
}
