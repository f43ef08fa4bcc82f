package litedb

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"splitft/internal/harness"
	"splitft/internal/simnet"
)

func testConfig(d Durability) Config {
	cfg := DefaultConfig()
	cfg.Durability = d
	cfg.NPages = 128
	cfg.WALBytes = 128 << 10 // ~31 frames before wrap
	return cfg
}

func TestCircularWALWrapsAndCheckpoints(t *testing.T) {
	c := harness.New(harness.Options{Seed: 2, NumPeers: 4})
	err := c.Run(func(p *simnet.Proc) error {
		fs, _ := c.NewFS(p, "lite", 0)
		db, err := Open(p, fs, testConfig(SplitFT))
		if err != nil {
			return err
		}
		val := bytes.Repeat([]byte("z"), 100)
		for i := 0; i < 200; i++ { // >> 31 frames: multiple wraps
			if err := db.Set(p, fmt.Sprintf("row%04d", i%50), val); err != nil {
				return err
			}
		}
		if db.Checkpoints == 0 {
			return errors.New("WAL never wrapped/checkpointed")
		}
		if db.walOff >= db.cfg.WALBytes {
			return fmt.Errorf("walOff %d beyond capacity", db.walOff)
		}
		// Data durable across the wraps.
		for i := 0; i < 50; i++ {
			if _, ok, _ := db.Get(p, fmt.Sprintf("row%04d", i)); !ok {
				return fmt.Errorf("row%04d lost after wraps", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPageOverflowError(t *testing.T) {
	c := harness.New(harness.Options{Seed: 7, NumPeers: 3})
	err := c.Run(func(p *simnet.Proc) error {
		fs, _ := c.NewFS(p, "lite", 0)
		cfg := testConfig(SplitFT)
		cfg.NPages = 1 // everything on one page
		db, err := Open(p, fs, cfg)
		if err != nil {
			return err
		}
		big := bytes.Repeat([]byte("B"), 1000)
		var lastErr error
		for i := 0; i < 10; i++ {
			lastErr = db.Set(p, fmt.Sprintf("big%d", i), big)
			if lastErr != nil {
				break
			}
		}
		if !errors.Is(lastErr, ErrPageFull) {
			return fmt.Errorf("expected page overflow, got %v", lastErr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Page codec property: set/get roundtrips for arbitrary key sets.
func TestQuickPageCodec(t *testing.T) {
	f := func(pairs map[string]string) bool {
		img := make([]byte, 8192)
		shadow := map[string]string{}
		for k, v := range pairs {
			if len(k) > 200 || len(v) > 200 {
				continue
			}
			next, err := pageSet(img, k, []byte(v))
			if err != nil {
				continue // overflow: acceptable
			}
			img = next
			shadow[k] = v
		}
		for k, v := range shadow {
			got, ok := pageGet(img, k)
			if !ok || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
