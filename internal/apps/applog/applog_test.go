package applog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"splitft/internal/core"
	"splitft/internal/harness"
	"splitft/internal/simnet"
	"splitft/internal/trace"
)

// threeBatches is a log of three records, with the offset where each ends
// and the offset of every length field (plen, count, klen, vlen) by record.
func threeBatches() (batches [][]Op, log []byte, ends []int, fields [][]int) {
	batches = [][]Op{
		{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte{}, Del: true}},
		{{Key: "cc", Value: bytes.Repeat([]byte("x"), 40)}},
		{{Key: "d", Value: []byte{}}, {Key: "e", Value: []byte("55")}, {Key: "", Value: []byte("z")}},
	}
	for _, b := range batches {
		start := len(log)
		log = append(log, Encode(len(b), func(i int) Op { return b[i] })...)
		ends = append(ends, len(log))
		f := []int{start, start + recHdr}
		pos := start + recHdr + 4
		for _, o := range b {
			f = append(f, pos+1, pos+5)
			pos += opHdr + len(o.Key) + len(o.Value)
		}
		fields = append(fields, f)
	}
	return
}

// Whatever a crash or a bad length does to the log, Scan yields a prefix of
// whole batches and never panics.
func TestScanYieldsPrefixOfWholeBatches(t *testing.T) {
	batches, log, ends, fields := threeBatches()
	check := func(what string, data []byte, whole int) {
		t.Helper()
		var want, got []Op
		for _, b := range batches[:whole] {
			want = append(want, b...)
		}
		Scan(data, func(o Op) { got = append(got, o) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scanned %d ops, want the %d of the first %d batches", what, len(got), len(want), whole)
		}
	}
	for n := 0; n <= len(log); n++ {
		whole := 0
		for whole < len(ends) && ends[whole] <= n {
			whole++
		}
		check("truncated", log[:n], whole)
	}
	// Flip every bit of every length field, leaving the CRC stale and then
	// refreshing it (a writer bug rather than a torn write): the damaged
	// record and everything after it is the torn tail.
	for k, fs := range fields {
		for _, off := range fs {
			for bit := 0; bit < 32; bit++ {
				bad := append([]byte(nil), log...)
				bad[off+bit/8] ^= 1 << (bit % 8)
				check("stale crc", bad, k)
				if off == fs[0] {
					continue // plen itself is outside the checksummed payload
				}
				start := fs[0]
				binary.LittleEndian.PutUint32(bad[start+4:], crc32.ChecksumIEEE(bad[start+recHdr:ends[k]]))
				check("fresh crc", bad, k)
			}
		}
	}
}

// The kvstore commit path relies on the record being Encode's only
// allocation.
func TestEncodeAllocatesOnlyTheRecord(t *testing.T) {
	type req struct{ op Op }
	batch := []*req{{Op{Key: "k1", Value: []byte("v1")}}, {Op{Key: "k2", Del: true}}}
	var rec []byte
	if n := testing.AllocsPerRun(100, func() {
		rec = Encode(len(batch), func(i int) Op { return batch[i].op })
	}); n != 1 {
		t.Fatalf("Encode allocated %.0f times, want 1", n)
	}
	var got []Op
	Scan(rec, func(o Op) { got = append(got, o) })
	if len(got) != 2 || got[0].Key != "k1" || string(got[0].Value) != "v1" || !got[1].Del {
		t.Fatalf("round trip = %+v", got)
	}
}

// ReadLog of a recovering ncl file hides everything NCL does behind the
// parse (DESIGN.md §16): it starts parsing when the first segment has arrived
// and returns N/ParseBW and one SyncCPU later — or, when the log is so small
// that re-synchronizing its peers outlasts its parse, when that is done. The
// whole parse is charged either way.
func TestReadLogOverlapsStreamedRecovery(t *testing.T) {
	for _, size := range []int{64 << 10, 5<<20 + 12345} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			t.Parallel()
			col := trace.New()
			c := harness.New(harness.Options{Seed: 5, NumPeers: 4, Trace: col})
			err := c.Run(func(p *simnet.Proc) error {
				fs, err := c.NewFS(p, "app", 0)
				if err != nil {
					return err
				}
				// A circular log: its survivors get the whole region again.
				f, err := fs.OpenFile(p, "wal", SplitFT.LogFlags(false), 6<<20)
				if err != nil {
					return err
				}
				want := make([]byte, size)
				p.Rand().Read(want)
				for off := 0; off < size; off += 256 << 10 {
					if _, err := f.Write(p, want[off:min(off+256<<10, size)]); err != nil {
						return err
					}
				}
				c.CrashApp()
				c.RestartApp()
				if fs, err = c.NewFS(p, "app", 1); err != nil {
					return err
				}
				mark := col.Len()
				if f, err = SplitFT.Reopen(p, fs, "wal"); err != nil {
					return err
				}
				got, err := ReadLog(p, f)
				end := p.Now()
				if err != nil || !bytes.Equal(got, want) {
					return fmt.Errorf("read %d of %d bytes, equal %v, %v", len(got), size, bytes.Equal(got, want), err)
				}
				spans := col.Since(mark)
				var firstSegment time.Duration
				for _, sp := range trace.Filter(spans, "rdma", "read") {
					if sp.IntAttr("bytes") > 16 { // past the header reads
						firstSegment = sp.End
						break
					}
				}
				rec := trace.First(spans, "ncl", "recover")
				if firstSegment == 0 || !rec.Done() {
					return fmt.Errorf("no segment read or no finished recovery in the trace (%v)", rec)
				}
				parse := time.Duration(float64(size) / ParseBW * float64(time.Second))
				parsed := firstSegment + parse
				if synced := rec.End; (size < 1<<20) != (synced > parsed) {
					return fmt.Errorf("sync phase ends at %v, parse at %v: the case is not the one intended", synced, parsed)
				}
				// Each chunk's parse rounds down to the nanosecond, and Sync's
				// own cost may pass while it waits.
				syncCPU, chunks := c.Profile.NCL.SyncCPU, time.Duration(size/readChunk+1)
				if lo, hi := max(parsed+syncCPU-chunks, rec.End), max(parsed, rec.End)+syncCPU; end < lo || end > hi {
					return fmt.Errorf("ReadLog returned at %v, want [%v, %v]: first segment %v + parse %v + SyncCPU, or the end of the recovery %v",
						end, lo, hi, firstSegment, parse, rec.End)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// shortFile claims more bytes than its reads deliver.
type shortFile struct{ core.File }

func (shortFile) Size() int64  { return 100 }
func (shortFile) Path() string { return "short.log" }
func (shortFile) Pread(_ *simnet.Proc, buf []byte, _ int64) (int, error) {
	return copy(buf, "ten bytes."), nil
}

// A read that comes back short is an error, not ninety zeros to parse.
func TestReadLogRejectsShortRead(t *testing.T) {
	s := simnet.New(1)
	var data []byte
	var err error
	s.Go("reader", func(p *simnet.Proc) { data, err = ReadLog(p, shortFile{}) })
	if rerr := s.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil || data != nil {
		t.Fatalf("ReadLog of a short file returned %d bytes, %v; want an error", len(data), err)
	}
}

// A log released right before a crash whose ap-map delete was lost after the
// next log recycled its regions is still listed when the application comes
// back; its recovery finishes the release (DESIGN.md §14), and a port reading
// it as a survivor replays nothing rather than failing its start.
func TestReleasedSurvivorReplaysNothing(t *testing.T) {
	c := harness.New(harness.Options{Seed: 6, NumPeers: 4})
	err := c.Run(func(p *simnet.Proc) error {
		fs, err := c.NewFS(p, "app", 0)
		if err != nil {
			return err
		}
		f, err := fs.OpenFile(p, "log-1", SplitFT.LogFlags(true), 1<<20)
		if err == nil {
			_, err = f.Write(p, Encode(1, func(int) Op { return Op{Key: "k", Value: []byte("v")} }))
		}
		if err != nil {
			return err
		}
		net := c.Sim.Net()
		for _, n := range c.Controller.Nodes() {
			net.Partition(c.AppNode, n)
		}
		c.AppNode.Go("rotate", func(ap *simnet.Proc) {
			fs.Unlink(ap, "log-1")                                  //nolint:errcheck
			fs.OpenFile(ap, "log-2", SplitFT.LogFlags(true), 1<<20) //nolint:errcheck // its create waits out the partition
		})
		p.Sleep(5 * time.Millisecond) // the successor's set-up recycles log-1's regions
		for _, n := range c.Controller.Nodes() {
			net.Heal(c.AppNode, n)
		}
		c.CrashApp()
		c.RestartApp()
		if fs, err = c.NewFS(p, "app", 1); err != nil {
			return err
		}
		logs, err := SplitFT.Survivors(p, fs, "log-%d")
		if err != nil || len(logs) != 1 || logs[0].Path != "log-1" {
			return fmt.Errorf("survivors %v (%v), want log-1, whose delete was lost", logs, err)
		}
		if data, err := SplitFT.ReadSurvivor(p, fs, "log-1"); err != nil || len(data) != 0 {
			return fmt.Errorf("released survivor read %d bytes (%v), want none", len(data), err)
		}
		if files, err := fs.ListNCL(p); err != nil || len(files) != 0 {
			return fmt.Errorf("ncl files %v (%v) after the survivor was read, want none", files, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
