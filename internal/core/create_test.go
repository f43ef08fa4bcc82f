package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"splitft/internal/core"
	"splitft/internal/harness"
	"splitft/internal/model"
	"splitft/internal/simnet"
)

// TestDirectoryOlderThanFile is the script an O_CREATE open that creates
// first has to survive (DESIGN.md §15): instance B of an application starts
// on a second node, so its ap-map directory is as old as its session; then
// instance A creates "wal" on the application node, acknowledges a record and
// crashes. B's directory misses "wal", so B's O_NCL|O_CREATE open tries to
// create it — on the peers A's create ranked, at A's epoch — and must come
// back with every byte A acknowledged, opening B's create at A's region size
// and at another. Three rules carry it, and the mutation table
// (mutations/run.sh) drops each in turn: publish's read-back does not take
// A's entry for B's own (it names A's fencing token), a peer's set-up at the
// epoch of a region it holds never replaces that region, and a create that
// fails falls back to recovery.
func TestDirectoryOlderThanFile(t *testing.T) {
	const region = 1 << 20
	record := []byte("acknowledged by instance A")
	for _, pol := range []string{"mirror", "ec:4,2", "quorum"} {
		for _, ttl := range []time.Duration{0, time.Minute} {
			for _, size := range []struct {
				name  string
				bytes int64
			}{{"same", region}, {"other", 2 * region}} {
				t.Run(fmt.Sprintf("%s/ttl=%v/%s_size", pol, ttl, size.name), func(t *testing.T) {
					t.Parallel()
					prof := *model.Baseline()
					prof.NCL.Replication = pol
					prof.NCL.PoolRefresh = ttl
					c := harness.New(harness.Options{Seed: 6, NumPeers: 8, Profile: &prof})
					err := c.Run(func(p *simnet.Proc) error {
						opts := c.FSOptions("app", 2)
						opts.Node = c.Sim.NewNode("standby")
						b, err := core.NewFS(p, opts)
						if err != nil {
							return fmt.Errorf("instance B: %w", err)
						}
						a, err := c.NewFS(p, "app", 1)
						if err != nil {
							return fmt.Errorf("instance A: %w", err)
						}
						f, err := a.OpenFile(p, "wal", core.O_NCL|core.O_CREATE|core.O_APPEND, region)
						if err == nil {
							_, err = f.Write(p, record)
						}
						if err != nil {
							return fmt.Errorf("instance A's write: %w", err)
						}
						c.CrashApp()
						g, err := b.OpenFile(p, "wal", core.O_NCL|core.O_CREATE|core.O_APPEND, size.bytes)
						if err != nil {
							return fmt.Errorf("instance B's open: %w", err)
						}
						got := make([]byte, g.Size())
						if _, err := g.Pread(p, got, 0); err != nil {
							return fmt.Errorf("instance B's read: %w", err)
						}
						if !bytes.Equal(got, record) {
							return fmt.Errorf("instance B's open holds %q, want the record A acknowledged, %q", got, record)
						}
						return g.Sync(p)
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
