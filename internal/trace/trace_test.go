package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestCollectorBasics(t *testing.T) {
	c := New()
	if c.Len() != 0 {
		t.Fatalf("new collector Len = %d", c.Len())
	}
	run := c.AddRun()
	if run != 0 {
		t.Fatalf("first run = %d, want 0", run)
	}
	if c.AddRun() != 1 {
		t.Fatal("second run != 1")
	}

	root := c.Start(10, run, 1, "ncl", "record", "app", nil, Str("file", "wal"), Int("bytes", 128))
	child := c.Start(12, run, 1, "rdma", "write", "app", root)
	if root.ID != 1 || child.ID != 2 {
		t.Fatalf("ids = %d, %d; want 1, 2", root.ID, child.ID)
	}
	if child.Parent != root.ID {
		t.Fatalf("child.Parent = %d, want %d", child.Parent, root.ID)
	}
	if root.Done() {
		t.Fatal("unfinished span reports Done")
	}
	if root.Dur() != 0 {
		t.Fatal("unfinished span has nonzero Dur")
	}
	c.End(child, 20)
	c.End(root, 25)
	c.End(root, 99) // idempotent
	if root.End != 25 {
		t.Fatalf("End not idempotent: %v", root.End)
	}
	if root.Dur() != 15 || child.Dur() != 8 {
		t.Fatalf("durations = %v, %v", root.Dur(), child.Dur())
	}
	if root.StrAttr("file") != "wal" || root.IntAttr("bytes") != 128 {
		t.Fatalf("attrs lost: %v", root.Attrs)
	}
	if root.StrAttr("missing") != "" || root.IntAttr("missing") != 0 {
		t.Fatal("missing attrs should be zero")
	}
}

func TestNilSafety(t *testing.T) {
	var c *Collector
	if c.Len() != 0 || c.Spans() != nil || c.Since(0) != nil {
		t.Fatal("nil collector accessors not zero")
	}
	c.End(nil, 5) // must not panic
	var sp *Span
	if sp.Dur() != 0 || sp.Done() || sp.StrAttr("x") != "" || sp.IntAttr("x") != 0 {
		t.Fatal("nil span accessors not zero")
	}
	sp.SetAttr(Str("k", "v")) // must not panic
}

func TestSinceAndQueries(t *testing.T) {
	c := New()
	run := c.AddRun()
	a := c.Start(0, run, 1, "ncl", "recover.getpeer", "n1", nil)
	c.End(a, 5)
	mark := c.Len()
	b := c.Start(5, run, 1, "ncl", "recover.rdmaread", "n1", nil)
	c.End(b, 30)
	d := c.Start(30, run, 1, "dfs", "fsync", "n1", nil)
	c.End(d, 40)

	since := c.Since(mark)
	if len(since) != 2 {
		t.Fatalf("Since(mark) = %d spans, want 2", len(since))
	}
	if c.Since(-1) == nil || len(c.Since(-1)) != 3 {
		t.Fatal("Since(-1) should clamp to all spans")
	}
	if c.Since(99) != nil {
		t.Fatal("Since past end should be nil")
	}
	if got := Sum(since, "ncl", "recover.rdmaread"); got != 25 {
		t.Fatalf("Sum = %v, want 25", got)
	}
	if got := Sum(c.Spans(), "ncl", "recover."); got != 30 {
		t.Fatalf("prefix Sum = %v, want 30", got)
	}
	if Count(c.Spans(), "", "") != 3 {
		t.Fatal("Count all != 3")
	}
	if First(c.Spans(), "dfs", "") != d {
		t.Fatal("First dfs span wrong")
	}
	if First(c.Spans(), "rdma", "") != nil {
		t.Fatal("First on absent layer should be nil")
	}
	if got := Filter(c.Spans(), "ncl", ""); len(got) != 2 {
		t.Fatalf("Filter ncl = %d spans", len(got))
	}
}

func TestAggregate(t *testing.T) {
	c := New()
	run := c.AddRun()
	for i, d := range []time.Duration{10, 20, 30} {
		sp := c.Start(time.Duration(i*100), run, 1, "ncl", "record", "app", nil)
		c.End(sp, time.Duration(i*100)+d)
	}
	open := c.Start(999, run, 1, "ncl", "record", "app", nil)
	_ = open // never ended: must be excluded
	sp := c.Start(0, run, 1, "dfs", "fsync", "app", nil)
	c.End(sp, 7)

	rows := Aggregate(c.Spans())
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	// Sorted by layer: dfs before ncl.
	if rows[0].Layer != "dfs" || rows[1].Layer != "ncl" {
		t.Fatalf("row order: %+v", rows)
	}
	r := rows[1]
	if r.Count() != 3 || r.Sum() != 60 || r.Min() != 10 || r.Max() != 30 || r.Mean() != 20 || r.Percentile(0.5) != 20 {
		t.Fatalf("ncl row = %s", r.Summary())
	}
	out := RenderAggregate(rows)
	if !strings.Contains(out, "record") || !strings.Contains(out, "fsync") {
		t.Fatalf("render missing rows:\n%s", out)
	}
}

func TestChromeExport(t *testing.T) {
	c := New()
	run := c.AddRun()
	sp := c.Start(1500, run, 3, "ncl", "record", "app", nil, Str("file", "a\"b"), Int("bytes", 128))
	c.End(sp, 2750)
	async := c.Start(1600, run, 3, "rdma", "write", "app", sp)
	async.Async = true
	c.End(async, 2500)
	open := c.Start(5000, run, 3, "ncl", "record", "app", nil)
	_ = open // unfinished: excluded from export

	var buf bytes.Buffer
	if err := WriteChrome(&buf, c.Spans()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	// 1 X event + b/e pair = 3 events.
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if events[0]["ph"] != "X" || events[0]["name"] != "record@app" {
		t.Fatalf("first event: %v", events[0])
	}
	if events[0]["ts"].(float64) != 1.5 || events[0]["dur"].(float64) != 1.25 {
		t.Fatalf("timestamps: ts=%v dur=%v", events[0]["ts"], events[0]["dur"])
	}
	args := events[0]["args"].(map[string]any)
	if args["file"] != `a"b` || args["bytes"].(float64) != 128 {
		t.Fatalf("args: %v", args)
	}
	if events[1]["ph"] != "b" || events[2]["ph"] != "e" {
		t.Fatalf("async pair: %v %v", events[1]["ph"], events[2]["ph"])
	}
	if events[1]["id"] != events[2]["id"] {
		t.Fatal("async begin/end ids differ")
	}

	// Determinism: same spans, same bytes.
	var buf2 bytes.Buffer
	if err := WriteChrome(&buf2, c.Spans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two exports of the same spans differ")
	}
}

func TestChromeFile(t *testing.T) {
	c := New()
	sp := c.Start(0, c.AddRun(), 1, "app", "op", "n", nil)
	c.End(sp, 10)
	path := t.TempDir() + "/trace.json"
	if err := WriteChromeFile(path, c.Spans()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeFile("/nonexistent-dir/x/y.json", c.Spans()); err == nil {
		t.Fatal("expected error for bad path")
	}
}
