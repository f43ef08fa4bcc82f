package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cli runs the CLI in-process from an empty working directory and returns
// its exit code, stdout and the files it left behind.
func cli(t *testing.T, args ...string) (code int, stdout string, files []string) {
	t.Helper()
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old) //nolint:errcheck
	var out, errOut bytes.Buffer
	code = realMain(args, &out, &errOut)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		files = append(files, filepath.Join(dir, e.Name()))
	}
	t.Logf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	return code, out.String(), files
}

// A typo must fail with exit 2 before any experiment starts — not after
// hours of simulation.
func TestBadNamesExitBeforeRunning(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "table2", "fig88"},
		{"-quick", "-replicate", "raid5", "table2"},
		{"-quick", "-apps", "kvstore,mongodb", "table2"},
		{"-quick", "trace"},
		{"-quick"},
	} {
		code, stdout, files := cli(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(stdout, "====") || len(files) != 0 {
			t.Errorf("%v: ran an experiment or wrote %v before failing", args, files)
		}
	}
}

// Without -out nothing is written (a committed baseline can only be
// overwritten on purpose); with it, the file holds every row of the run.
func TestOutIsTheOnlyFileWritten(t *testing.T) {
	code, stdout, files := cli(t, "-quick", "table2", "fig8")
	if code != 0 || len(files) != 0 {
		t.Fatalf("exit %d, files %v: want a clean run that writes nothing", code, files)
	}
	if !strings.Contains(stdout, "==== table2 ====") || !strings.Contains(stdout, "==== fig8 ====") {
		t.Errorf("missing experiment banners in:\n%s", stdout)
	}

	code, _, files = cli(t, "-quick", "-out", "rows.json", "table2", "fig8")
	if code != 0 || len(files) != 1 || filepath.Base(files[0]) != "rows.json" {
		t.Fatalf("exit %d, files %v: want exactly rows.json", code, files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Profile string
		Seed    int64
		Rows    []struct{ Experiment, Cell, Metric, Clock string }
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	// Every experiment's rows end with what its run cost the host.
	count, cost := map[string]int{}, map[string]int{}
	for _, row := range file.Rows {
		count[row.Experiment]++
		if row.Cell == "run" && row.Clock == "host" && (row.Metric == "host_ns" || row.Metric == "events") {
			cost[row.Experiment]++
		}
	}
	if file.Profile != "CX4RoCE25" || file.Seed != 1 || count["table2"] != 8+2 || count["fig8"] != 21+2 || len(count) != 2 ||
		cost["table2"] != 2 || cost["fig8"] != 2 {
		t.Errorf("rows.json: profile %q seed %d rows %v, of them run-cost rows %v", file.Profile, file.Seed, count, cost)
	}
}
