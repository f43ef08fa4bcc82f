package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"splitft/internal/controller"
	"splitft/internal/core"
	"splitft/internal/harness"
	"splitft/internal/model"
	"splitft/internal/simnet"
)

// TestDirectoryOlderThanFile is the script an O_CREATE open that creates
// first has to survive (DESIGN.md §15). A lib's ap-map directory is exact
// from its session start on, except for what a newer instance writes — and
// that instance's session fences this one's ap-map writes. So: instance B
// (token 1) starts on a second node; then instance A (token 2) starts on the
// application node, creates "wal", acknowledges a record and crashes. B's
// directory misses "wal", so B's O_NCL|O_CREATE open tries to create it — on
// the peers A's create ranked, at A's epoch — and must come back with every
// byte A acknowledged, opening B's create at A's region size and at another.
// Four rules carry it, and the mutation table (mutations/run.sh) drops three
// in turn: publish's read-back does not take A's entry for B's own (it names
// A's fencing token), a peer's set-up at the epoch of a region it holds never
// replaces that region, and a create that fails — here ErrFenced — falls
// back to recovery. The fourth is the fence itself: B recovers the log but,
// fenced, cannot publish under it, so a frame log's barrier (which always
// republishes) answers ErrFenced.
//
// The second script keeps the other order: B (token 2) starts first, and the
// older A's create of "wal" is ErrFenced, so A acknowledges nothing and the
// ap-map holds no "wal".
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
					c := directoryCluster(pol, ttl)
					err := c.Run(func(p *simnet.Proc) error {
						b, err := standby(p, c, 1)
						if err != nil {
							return fmt.Errorf("instance B: %w", err)
						}
						a, err := c.NewFS(p, "app", 2)
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
						// Mirror's full house republishes nothing; a frame log
						// always does, under a new epoch.
						if err := g.Sync(p); errors.Is(err, controller.ErrFenced) != (pol != "mirror") {
							return fmt.Errorf("instance B's barrier under %s: %v", pol, err)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	for _, pol := range []string{"mirror", "ec:4,2", "quorum"} {
		t.Run(pol+"/older_instance_creates", func(t *testing.T) {
			t.Parallel()
			c := directoryCluster(pol, 0)
			err := c.Run(func(p *simnet.Proc) error {
				b, err := standby(p, c, 2)
				if err != nil {
					return fmt.Errorf("instance B: %w", err)
				}
				a, err := c.NewFS(p, "app", 1)
				if err != nil {
					return fmt.Errorf("instance A: %w", err)
				}
				if _, err := a.OpenFile(p, "wal", core.O_NCL|core.O_CREATE|core.O_APPEND, region); !errors.Is(err, controller.ErrFenced) {
					return fmt.Errorf("instance A's open: %v, want ErrFenced", err)
				}
				c.CrashApp()
				if _, err := b.OpenFile(p, "wal", core.O_NCL, 0); !errors.Is(err, core.ErrNotExist) {
					return fmt.Errorf("instance B's open of the name A tried: %v, want ErrNotExist", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func directoryCluster(pol string, ttl time.Duration) *harness.Cluster {
	prof := *model.Baseline()
	prof.NCL.Replication = pol
	prof.NCL.PoolRefresh = ttl
	return harness.New(harness.Options{Seed: 6, NumPeers: 8, Profile: &prof})
}

// standby starts an instance of "app" under token fencing on a node of its
// own.
func standby(p *simnet.Proc, c *harness.Cluster, fencing int64) (*core.FS, error) {
	opts := c.FSOptions("app", fencing)
	opts.Node = c.Sim.NewNode("standby")
	return core.NewFS(p, opts)
}
