// Package applog is the one place that knows how a ported application's log
// file behaves. The paper's claim is that a port to SplitFT is the O_NCL bit
// on the log's open call and that the fsynced prefix then survives any crash
// (§4.1, §4.5.1); the four stores in internal/apps share that discipline from
// here rather than each restating it:
//
//   - Durability names the three evaluated configurations and turns them
//     into open flags (LogFlags, Reopen) and into the durability point after
//     a write (Commit).
//   - Encode and Scan are the CRC-framed batch record kvstore's WAL and
//     redstore's AOF are made of; Scan stops at the torn tail.
//   - ReadLog is recovery's whole-file read plus the application-level
//     parse cost, at the one ParseBW rate, the two overlapped, and the
//     barrier that no port may serve or acknowledge anything before: it
//     ends with the file's Sync. ReadSurvivor wraps it in the reopen and
//     close of a log that is only replayed.
//   - Survivors lists the logs that outlived a crash, oldest first.
//   - SortedKeys is the order a port writes a map out in, so that the bytes
//     of every file are a function of the state and not of map iteration.
//
// What a log's records mean — memtable entries, commands, page images,
// unframed journal records — stays with each port (DESIGN.md §13).
package applog

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"time"

	"splitft/internal/core"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// Durability selects the evaluated configuration.
type Durability int

const (
	// Weak leaves log writes in the dfs client cache (weak-app DFT): an
	// acknowledged write is lost if the server crashes before writeback.
	Weak Durability = iota
	// Strong fsyncs the log to the dfs after every write (strong-app DFT).
	Strong
	// SplitFT keeps the log in near-compute logs via O_NCL.
	SplitFT
)

func (d Durability) String() string {
	switch d {
	case Weak:
		return "weak"
	case Strong:
		return "strong"
	default:
		return "splitft"
	}
}

// LogFlags returns the flags a port creates a log file with. The whole
// SplitFT port is the O_NCL bit; appendOnly adds the hint that lets NCL
// recovery catch a lagging peer up from the tail instead of copying the
// region (false for litedb's circular WAL).
func (d Durability) LogFlags(appendOnly bool) core.OpenFlag {
	switch {
	case d != SplitFT:
		return core.O_CREATE
	case appendOnly:
		return core.O_NCL | core.O_CREATE | core.O_APPEND
	default:
		return core.O_NCL | core.O_CREATE
	}
}

// Reopen opens a log that survived a crash, never creating it. Under
// SplitFT this is the open that runs NCL recovery from the log peers.
func (d Durability) Reopen(p *simnet.Proc, fs *core.FS, path string) (core.File, error) {
	return fs.OpenFile(p, path, d.LogFlags(false)&^core.O_CREATE, 0)
}

// ReopenSurvivor is Reopen of a log Survivors listed, and nil, nil when the
// log turns out to be gone: under SplitFT, one the crashed instance released
// whose ap-map delete was lost after the next log recycled its regions —
// the recovery finishes that release (DESIGN.md §14). A port releases a log
// only once what it held is durable elsewhere, so there is nothing to replay.
func (d Durability) ReopenSurvivor(p *simnet.Proc, fs *core.FS, path string) (core.File, error) {
	f, err := d.Reopen(p, fs, path)
	if errors.Is(err, core.ErrNotExist) {
		return nil, nil
	}
	return f, err
}

// Commit makes what was just written to log f as durable as d promises
// before the port acknowledges it: Strong pays the fsync, a SplitFT write is
// already on a majority of peers, and Weak promises nothing.
func (d Durability) Commit(p *simnet.Proc, f core.File) error {
	if d == Strong {
		return f.Sync(p)
	}
	return nil
}

// Survivor is one log file found after a crash.
type Survivor struct {
	Path string
	Seq  int
}

// Survivors lists the logs named by format (a path with one %d verb for the
// sequence number, e.g. "/kv/wal-%06d.log") that outlived the crash, oldest
// first: the application's ncl files under SplitFT, the dfs directory
// otherwise.
func (d Durability) Survivors(p *simnet.Proc, fs *core.FS, format string) ([]Survivor, error) {
	var names []string
	if d == SplitFT {
		var err error
		if names, err = fs.ListNCL(p); err != nil {
			return nil, err
		}
	} else {
		names = fs.ListDFS(format[:strings.IndexByte(format, '%')])
	}
	var out []Survivor
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(name, format, &n); err == nil {
			out = append(out, Survivor{Path: name, Seq: n})
		}
	}
	slices.SortFunc(out, func(a, b Survivor) int { return cmp.Compare(a.Seq, b.Seq) })
	return out, nil
}

// SortedKeys returns m's keys in ascending order.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// ParseBW is the rate (bytes/s) at which recovery decodes a log; it
// dominates application-level recovery time (Fig 11b "parse"). It is the
// paper's calibrated application cost, single-threaded.
const ParseBW = 150e6

// readChunk is the unit in which ReadLog reads a log ahead of the parse.
const readChunk = 1 << 20

// ReadLog returns the whole content of f, charges the parse cost and ends
// with f.Sync — the one read all four ports recover through. A reader proc
// fills the buffer chunk by chunk while the caller parses what has arrived,
// so on any file the read hides behind the parse; on an ncl file under
// streamed recovery (DESIGN.md §16) so does the peers' re-synchronization,
// and the closing Sync is the barrier behind which the log is as redundant as
// before the crash: no port serves or acknowledges anything derived from the
// log before ReadLog has returned. The read-and-parse is one "app"/"readlog"
// span (Fig 11b "parse").
func ReadLog(p *simnet.Proc, f core.File) ([]byte, error) {
	data := make([]byte, f.Size())
	sp := p.StartSpan("app", "readlog", trace.Str("path", f.Path()), trace.Int("bytes", int64(len(data))))
	var (
		mu     simnet.Mutex
		cond   = simnet.NewCond(&mu)
		filled int   // data[:filled] has been read
		rerr   error // the reader's error; it has stopped
	)
	p.Go("applog-read:"+f.Path(), func(rp *simnet.Proc) {
		for filled < len(data) && rerr == nil {
			chunk := data[filled:min(filled+readChunk, len(data))]
			n, err := f.Pread(rp, chunk, int64(filled))
			if err == nil && n != len(chunk) {
				err = fmt.Errorf("applog: short read of %s at %d: %d of %d bytes", f.Path(), filled, n, len(chunk))
			}
			if err == nil {
				filled += n
			}
			rerr = err
			cond.Broadcast(rp)
		}
	})
	for parsed := 0; parsed < len(data) && rerr == nil; {
		mu.Lock(p)
		for filled == parsed && rerr == nil {
			cond.Wait(p)
		}
		avail := filled
		mu.Unlock(p)
		p.Sleep(time.Duration(float64(avail-parsed) / ParseBW * float64(time.Second)))
		parsed = avail
	}
	p.EndSpan(sp)
	if rerr != nil {
		return nil, rerr
	}
	return data, f.Sync(p)
}

// ReadSurvivor reopens (ReopenSurvivor), reads (ReadLog) and closes one
// surviving log; a log that turns out to be gone reads as empty.
func (d Durability) ReadSurvivor(p *simnet.Proc, fs *core.FS, path string) ([]byte, error) {
	f, err := d.ReopenSurvivor(p, fs, path)
	if f == nil || err != nil {
		return nil, err
	}
	defer f.Close(p)
	return ReadLog(p, f)
}

// Op is one update in a batch record.
type Op struct {
	Key   string
	Value []byte
	Del   bool
}

// Record layout: [4B payloadLen][4B crc32(payload)][payload], where payload
// is [4B count] then per op [1B del][4B klen][4B vlen][key][value].
const (
	recHdr = 8
	opHdr  = 9
)

// Encode frames ops 0..n-1 as one record. op is called twice per index (size,
// then content) and does not escape, so the record is the only allocation.
func Encode(n int, op func(i int) Op) []byte {
	size := 4
	for i := 0; i < n; i++ {
		o := op(i)
		size += opHdr + len(o.Key) + len(o.Value)
	}
	buf := make([]byte, recHdr+size)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(size))
	payload := buf[recHdr:]
	binary.LittleEndian.PutUint32(payload[0:4], uint32(n))
	pos := 4
	for i := 0; i < n; i++ {
		o := op(i)
		if o.Del {
			payload[pos] = 1
		}
		binary.LittleEndian.PutUint32(payload[pos+1:pos+5], uint32(len(o.Key)))
		binary.LittleEndian.PutUint32(payload[pos+5:pos+9], uint32(len(o.Value)))
		pos += opHdr
		pos += copy(payload[pos:], o.Key)
		pos += copy(payload[pos:], o.Value)
	}
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return buf
}

// Scan calls apply for every op of every intact record in data, in order,
// and stops at the torn tail — the first record that is short, fails its CRC
// or whose op lengths do not exactly fill its payload (an unacknowledged
// trailing write, §4.5.1). A record is applied whole or not at all. Each
// Op.Value is a fresh copy, so data may be dropped afterwards.
func Scan(data []byte, apply func(Op)) {
	for len(data) >= recHdr {
		plen := int64(binary.LittleEndian.Uint32(data[0:4]))
		if plen < 4 || recHdr+plen > int64(len(data)) {
			return
		}
		payload := data[recHdr : recHdr+plen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:8]) || !wellFormed(payload) {
			return
		}
		for q := 4; q < len(payload); {
			klen := int(binary.LittleEndian.Uint32(payload[q+1 : q+5]))
			vlen := int(binary.LittleEndian.Uint32(payload[q+5 : q+9]))
			key := q + opHdr
			val := make([]byte, vlen)
			copy(val, payload[key+klen:])
			apply(Op{Key: string(payload[key : key+klen]), Value: val, Del: payload[q] == 1})
			q = key + klen + vlen
		}
		data = data[recHdr+plen:]
	}
}

// wellFormed reports whether payload's count and op lengths fill it exactly.
func wellFormed(payload []byte) bool {
	count := int64(binary.LittleEndian.Uint32(payload[0:4]))
	q, end := int64(4), int64(len(payload))
	for ; count > 0; count-- {
		if q+opHdr > end {
			return false
		}
		q += opHdr + int64(binary.LittleEndian.Uint32(payload[q+1:q+5])) +
			int64(binary.LittleEndian.Uint32(payload[q+5:q+9]))
		if q > end {
			return false
		}
	}
	return q == end
}
