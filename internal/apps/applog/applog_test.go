package applog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
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
