package kvstore

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"splitft/internal/apps/applog"
	"splitft/internal/simnet"
)

// mergeByMap is the compaction merge as it was before mergeRuns, kept as the
// reference: replay the runs oldest first into a map so newer entries
// overwrite, drop tombstones, sort.
func mergeByMap(runs [][]entry) []entry {
	result := make(map[string]entry)
	for i := len(runs) - 1; i >= 0; i-- {
		for _, e := range runs[i] {
			result[e.key] = e
		}
	}
	for k, e := range result {
		if e.del {
			delete(result, k)
		}
	}
	out := make([]entry, 0, len(result))
	for _, k := range applog.SortedKeys(result) {
		out = append(out, result[k])
	}
	return out
}

// Compaction's k-way merge must equal the map reference on random L0 x 4 +
// L1 runs drawn from one small key space, so keys overlap across runs, some
// runs overwrite others and tombstones shadow older values.
func TestMergeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		runs := make([][]entry, 5) // newest first: L0 x 4, then L1
		for r := range runs {
			for k := 0; k < 64; k++ {
				if rng.Intn(3) != 0 {
					continue
				}
				e := entry{key: fmt.Sprintf("k%03d", k)}
				if rng.Intn(4) == 0 {
					e.del = true
				} else {
					e.value = []byte(fmt.Sprintf("r%d-%d", r, round))
				}
				runs[r] = append(runs[r], e)
			}
		}
		want := mergeByMap(runs)
		got := mergeRuns(append([][]entry(nil), runs...))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: merge\n got %v\nwant %v", round, got, want)
		}
	}
}

// memFile serves Pread from memory: a table read without a simulation.
type memFile struct{ data []byte }

func (f *memFile) Pread(_ *simnet.Proc, buf []byte, off int64) (int, error) {
	return copy(buf, f.data[off:]), nil
}
func (f *memFile) Write(*simnet.Proc, []byte) (int, error)         { panic("read-only") }
func (f *memFile) Pwrite(*simnet.Proc, []byte, int64) (int, error) { panic("read-only") }
func (f *memFile) Read(*simnet.Proc, []byte) (int, error)          { panic("read-only") }
func (f *memFile) Sync(*simnet.Proc) error                         { return nil }
func (f *memFile) Close(*simnet.Proc) error                        { return nil }
func (f *memFile) Size() int64                                     { return int64(len(f.data)) }
func (f *memFile) Path() string                                    { return "mem" }

// A table lookup allocates nothing per entry it scans: a hit allocates its
// block and the returned value, a bloom miss nothing at all.
func TestGetAllocatesOnlyBlockAndValue(t *testing.T) {
	var entries []entry
	for i := 0; i < 1000; i++ {
		entries = append(entries, entry{key: fmt.Sprintf("key%06d", 2*i), value: []byte("value")})
	}
	data, tbl := encodeSSTable(entries)
	tbl.file = &memFile{data: data}

	hit := entries[indexInterval-1].key // the last key of its block
	if v, found, _, _ := tbl.get(nil, hit); !found || string(v) != "value" {
		t.Fatalf("get(%q) = %q, %v", hit, v, found)
	}
	if n := testing.AllocsPerRun(100, func() { tbl.get(nil, hit) }); n != 2 {
		t.Errorf("a hit allocates %v times, want 2 (its block and the value)", n)
	}
	miss := ""
	for i := 0; miss == ""; i++ {
		if k := fmt.Sprintf("absent%d", i); !tbl.filter.mayContain(k) {
			miss = k
		}
	}
	if n := testing.AllocsPerRun(100, func() { tbl.get(nil, miss) }); n != 0 {
		t.Errorf("a bloom miss allocates %v times, want 0", n)
	}
}

// The inline hash is FNV-1a: tables written before it keep their filters.
func TestBloomHashIsFNV1a(t *testing.T) {
	for _, key := range []string{"", "a", "key000042", "user6284781860667377211"} {
		h := fnv.New64a()
		h.Write([]byte(key))
		if got, _ := bloomHash(key); got != h.Sum64() {
			t.Errorf("bloomHash(%q) = %#x, FNV-1a %#x", key, got, h.Sum64())
		}
	}
}
