// Package apps holds the one table of the applications ported to SplitFT.
// The four stores (kvstore, redstore, litedb, kvell) share their log
// discipline through internal/apps/applog; Ports is what everything that
// treats them alike — the bench harness and the conformance suite —
// iterates instead of switching on a name.
package apps

import (
	"splitft/internal/apps/applog"
	"splitft/internal/apps/kvell"
	"splitft/internal/apps/kvstore"
	"splitft/internal/apps/litedb"
	"splitft/internal/apps/redstore"
	"splitft/internal/core"
	"splitft/internal/model"
	"splitft/internal/simnet"
	"splitft/internal/ycsb"
)

// Sizing overrides a port's default capacities; zero fields keep them.
type Sizing struct {
	// LogBytes is how much log a port writes before it reclaims: kvstore's
	// memtable (WAL rotation), redstore's AOF-rewrite trigger, kvell's
	// journal flush threshold. litedb reclaims when its WAL wraps (Region).
	LogBytes int64
	// Region is the log file's capacity: the NCL region size, and the
	// length of litedb's circular WAL.
	Region int64
	// Pages is litedb's page count (database geometry).
	Pages int
}

// Store is an open port behind the calls every port has.
type Store struct {
	Put func(p *simnet.Proc, key string, value []byte) error
	Get func(p *simnet.Proc, key string) ([]byte, bool, error)
	// Delete is nil for kvell, which has no delete.
	Delete func(p *simnet.Proc, key string) error
	// Log returns the active log file.
	Log func() core.File
}

// OpenFunc starts a port's store on fs under the given cost model,
// durability configuration and capacities.
type OpenFunc func(p *simnet.Proc, fs *core.FS, costs model.AppCosts, d applog.Durability, sz Sizing) (Store, error)

// Port is one ported application.
type Port struct {
	Name string
	// AppID is the identity the port's FS instance registers its logs under.
	AppID string
	// LogSuffix ends the paths of the port's log files (Table 2's small,
	// synchronous class); every other file it writes is background IO.
	LogSuffix string
	// SingleConn marks a store used through one connection in exclusive
	// mode (litedb): it is loaded and driven by one client at a time.
	SingleConn bool
	// SizeFor returns the capacities that keep the port's reclaim cycle
	// (flushes, snapshots, page occupancy) running on a dataset of rows YCSB
	// rows as it would at the paper's 100M-row scale.
	SizeFor func(rows int64) Sizing
	// Open creates a fresh store; Recover rebuilds it after a crash from
	// what a store started with the same arguments left behind.
	Open, Recover OpenFunc
}

// Ports lists the ported applications: the paper's three (§4.7) and the §6
// no-log store.
var Ports = []Port{
	{Name: "kvstore", AppID: "kvapp", LogSuffix: ".log",
		// Memtable well below the dataset, so reads exercise sstables + cache.
		SizeFor: logShare(8, 1<<20, 16<<20),
		Open:    via(kvstore.Open, kvConfig, kvAdapt), Recover: via(kvstore.Recover, kvConfig, kvAdapt)},
	{Name: "redstore", AppID: "redapp", LogSuffix: ".aof",
		// AOF rewrites (background snapshots) occur at simulation scale.
		SizeFor: logShare(4, 256<<10, 8<<20),
		Open:    via(redstore.Open, redConfig, redAdapt), Recover: via(redstore.Recover, redConfig, redAdapt)},
	{Name: "litedb", AppID: "liteapp", LogSuffix: "-wal", SingleConn: true,
		// ~2KB average occupancy per 4KB page.
		SizeFor: func(rows int64) Sizing {
			return Sizing{Pages: int(rows*int64(ycsb.KeySize+ycsb.ValueSize+4)/2048 + 64)}
		},
		Open: via(litedb.Open, liteConfig, liteAdapt), Recover: via(litedb.Recover, liteConfig, liteAdapt)},
	{Name: "kvell", AppID: "kvellapp", LogSuffix: ".jnl",
		SizeFor: func(int64) Sizing { return Sizing{} },
		Open:    via(kvell.Open, kvellConfig, kvellAdapt), Recover: via(kvell.Recover, kvellConfig, kvellAdapt)},
}

// Lookup returns the port called name.
func Lookup(name string) (Port, bool) {
	for _, pt := range Ports {
		if pt.Name == name {
			return pt, true
		}
	}
	return Port{}, false
}

// DatasetBytes estimates the stored size of a YCSB row set.
func DatasetBytes(rows int64) int64 {
	return rows * int64(ycsb.KeySize+ycsb.ValueSize+16)
}

// logShare sizes the reclaim trigger as 1/div of the dataset within
// [lo, hi], and the region to hold two of them.
func logShare(div, lo, hi int64) func(rows int64) Sizing {
	return func(rows int64) Sizing {
		n := min(max(DatasetBytes(rows)/div, lo), hi)
		return Sizing{LogBytes: n, Region: 2*n + 1<<20}
	}
}

// via composes a port's own Open or Recover with the mapping of the shared
// arguments onto its Config and the adapter of its handle.
func via[C, S any](start func(*simnet.Proc, *core.FS, C) (S, error),
	config func(model.AppCosts, applog.Durability, Sizing) C, adapt func(S) Store) OpenFunc {

	return func(p *simnet.Proc, fs *core.FS, costs model.AppCosts, d applog.Durability, sz Sizing) (Store, error) {
		s, err := start(p, fs, config(costs, d, sz))
		if err != nil {
			return Store{}, err
		}
		return adapt(s), nil
	}
}

// set overrides a default with a non-zero Sizing field.
func set[T int | int64](field *T, v T) {
	if v != 0 {
		*field = v
	}
}

func kvConfig(costs model.AppCosts, d applog.Durability, sz Sizing) kvstore.Config {
	cfg := kvstore.DefaultConfig()
	cfg.KVStoreCosts, cfg.Durability = costs.KVStore, d
	set(&cfg.MemtableBytes, sz.LogBytes)
	set(&cfg.WALRegion, sz.Region)
	return cfg
}

func kvAdapt(db *kvstore.DB) Store { return Store{db.Put, db.Get, db.Delete, db.WAL} }

func redConfig(costs model.AppCosts, d applog.Durability, sz Sizing) redstore.Config {
	cfg := redstore.DefaultConfig()
	cfg.RedStoreCosts, cfg.Durability = costs.RedStore, d
	set(&cfg.AOFRewriteBytes, sz.LogBytes)
	set(&cfg.AOFRegion, sz.Region)
	return cfg
}

func redAdapt(s *redstore.Store) Store { return Store{s.Set, s.Get, s.Del, s.AOF} }

func liteConfig(costs model.AppCosts, d applog.Durability, sz Sizing) litedb.Config {
	cfg := litedb.DefaultConfig()
	cfg.LiteDBCosts, cfg.Durability = costs.LiteDB, d
	set(&cfg.WALBytes, sz.Region)
	set(&cfg.NPages, sz.Pages)
	return cfg
}

func liteAdapt(db *litedb.DB) Store { return Store{db.Set, db.Get, db.Delete, db.WAL} }

func kvellConfig(costs model.AppCosts, d applog.Durability, sz Sizing) kvell.Config {
	cfg := kvell.DefaultConfig()
	cfg.KVellCosts, cfg.Durability = costs.KVell, d
	set(&cfg.JournalBytes, sz.LogBytes)
	set(&cfg.JournalRegion, sz.Region)
	return cfg
}

func kvellAdapt(s *kvell.Store) Store { return Store{s.Put, s.Get, nil, s.Journal} }
