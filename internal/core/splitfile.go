package core

import (
	"encoding/binary"
	"fmt"

	"splitft/internal/simnet"
)

// SplitFile implements the §6 extension: fine-granular write splitting for
// files that mix small and large writes. Writes smaller than the threshold
// go to an NCL journal (fast, replicated in memory); writes at or above it
// go to the dfs file and are synced there (large writes extract full dfs
// bandwidth, so a synchronous flush is cheap per byte). The journal records
// where the latest data for each byte range resides, so recovery can merge
// the two layers — the metadata lives in the NCL layer, as the paper
// suggests.
//
// Journal entry layout (little endian):
//
//	[8B offset][4B length][1B kind] [payload if kind==small]
//
// kind: 0 = small write (payload inline), 1 = large-write marker (payload
// already durable in the dfs file when the marker is journaled).
type SplitFile struct {
	fs        *FS
	path      string
	threshold int
	journal   *nclFile
	dfsF      File
	view      []byte
	cursor    int64
	jOff      int64
}

const (
	splitKindSmall = 0
	splitKindLarge = 1
	splitHdrLen    = 13
)

func splitJournalPath(path string) string { return path + ".ncl-journal" }

// OpenSplit opens (or recovers) a fine-granular split file. threshold is
// the small/large boundary in bytes; journalSize the NCL region capacity.
// The view is always rebuilt from the two layers: for a new file both are
// empty and that costs nothing, and whether the journal existed is not a
// question worth a second ap-map lookup.
func (fs *FS) OpenSplit(p *simnet.Proc, path string, threshold int, journalSize int64) (*SplitFile, error) {
	jf, err := fs.OpenFile(p, splitJournalPath(path), O_NCL|O_CREATE, journalSize)
	if err != nil {
		return nil, err
	}
	df, err := fs.OpenFile(p, path, O_CREATE, 0)
	if err != nil {
		return nil, err
	}
	sf := &SplitFile{
		fs:        fs,
		path:      path,
		threshold: threshold,
		journal:   jf.(*nclFile),
		dfsF:      df,
	}
	if err := sf.replay(p); err != nil {
		return nil, err
	}
	return sf, nil
}

// replay rebuilds the merged view after recovery: start from the durable
// dfs content, then apply journal entries in order.
func (sf *SplitFile) replay(p *simnet.Proc) error {
	base := make([]byte, sf.dfsF.Size())
	if len(base) > 0 {
		if _, err := sf.dfsF.Pread(p, base, 0); err != nil {
			return err
		}
	}
	sf.view = base
	// The view is served from memory from here on: the journal it is built
	// from must be whole and as redundant as before the crash first.
	if err := sf.journal.lg.Sync(p); err != nil {
		return err
	}
	j := sf.journal.lg.Bytes()
	off := int64(0)
	for off+splitHdrLen <= int64(len(j)) {
		wOff := int64(binary.LittleEndian.Uint64(j[off : off+8]))
		wLen := int64(binary.LittleEndian.Uint32(j[off+8 : off+12]))
		kind := j[off+12]
		off += splitHdrLen
		switch kind {
		case splitKindSmall:
			if off+wLen > int64(len(j)) {
				// Torn trailing entry (unacknowledged write): stop.
				return nil
			}
			sf.applyView(wOff, j[off:off+wLen])
			off += wLen
		case splitKindLarge:
			// The range is durable in the dfs file; re-apply it so ordering
			// against earlier small writes is correct.
			seg := make([]byte, wLen)
			n, err := sf.dfsF.Pread(p, seg, wOff)
			if err != nil {
				return err
			}
			sf.applyView(wOff, seg[:n])
		default:
			return fmt.Errorf("splitft: corrupt journal entry kind %d", kind)
		}
	}
	sf.cursor = int64(len(sf.view))
	sf.jOff = sf.journal.lg.Length()
	return nil
}

func (sf *SplitFile) applyView(off int64, data []byte) {
	end := off + int64(len(data))
	if end > int64(len(sf.view)) {
		grown := make([]byte, end)
		copy(grown, sf.view)
		sf.view = grown
	}
	copy(sf.view[off:], data)
}

func (sf *SplitFile) journalEntry(p *simnet.Proc, off int64, length int, kind byte, payload []byte) error {
	buf := make([]byte, splitHdrLen+len(payload))
	binary.LittleEndian.PutUint64(buf[0:8], uint64(off))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(length))
	buf[12] = kind
	copy(buf[splitHdrLen:], payload)
	if _, err := sf.journal.Pwrite(p, buf, sf.jOff); err != nil {
		return err
	}
	sf.jOff += int64(len(buf))
	return nil
}

// Pwrite routes the write by size: small writes are journaled to NCL
// (durable on return); large writes go to the dfs, are synced there, and
// then a marker is journaled.
func (sf *SplitFile) Pwrite(p *simnet.Proc, data []byte, off int64) (int, error) {
	if len(data) >= sf.threshold {
		if _, err := sf.dfsF.Pwrite(p, data, off); err != nil {
			return 0, err
		}
		if err := sf.dfsF.Sync(p); err != nil {
			return 0, err
		}
		if err := sf.journalEntry(p, off, len(data), splitKindLarge, nil); err != nil {
			return 0, err
		}
	} else {
		if err := sf.journalEntry(p, off, len(data), splitKindSmall, data); err != nil {
			return 0, err
		}
	}
	sf.applyView(off, data)
	return len(data), nil
}

// Write appends at the cursor.
func (sf *SplitFile) Write(p *simnet.Proc, data []byte) (int, error) {
	n, err := sf.Pwrite(p, data, sf.cursor)
	sf.cursor += int64(n)
	return n, err
}

// Pread reads from the merged view.
func (sf *SplitFile) Pread(p *simnet.Proc, buf []byte, off int64) (int, error) {
	if off >= int64(len(sf.view)) {
		return 0, nil
	}
	n := int64(len(buf))
	if off+n > int64(len(sf.view)) {
		n = int64(len(sf.view)) - off
	}
	copy(buf[:n], sf.view[off:off+n])
	return int(n), nil
}

// Size returns the merged file length.
func (sf *SplitFile) Size() int64 { return int64(len(sf.view)) }

// Checkpoint writes the full merged view durably to the dfs file and resets
// the journal — the split-file analogue of log reclamation.
func (sf *SplitFile) Checkpoint(p *simnet.Proc) error {
	if _, err := sf.dfsF.Pwrite(p, sf.view, 0); err != nil {
		return err
	}
	if err := sf.dfsF.Sync(p); err != nil {
		return err
	}
	jpath := splitJournalPath(sf.path)
	if err := sf.fs.Unlink(p, jpath); err != nil {
		return err
	}
	jf, err := sf.fs.OpenFile(p, jpath, O_NCL|O_CREATE, sf.journal.lg.Capacity())
	if err != nil {
		return err
	}
	sf.journal = jf.(*nclFile)
	sf.jOff = 0
	return nil
}

// Close releases handles without destroying state.
func (sf *SplitFile) Close(p *simnet.Proc) error {
	if err := sf.journal.Close(p); err != nil {
		return err
	}
	return sf.dfsF.Close(p)
}
