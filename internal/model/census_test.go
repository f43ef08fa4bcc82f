package model_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"splitft/internal/model"
)

// root is the repository root, relative to this package's directory.
const root = "../.."

// profileLeaf is one leaf field of model.Profile's struct types, with every
// place it sits in a Profile (DFSParams' fields sit under DFS and LocalFS).
type profileLeaf struct {
	field reflect.StructField
	index [][]int  // field index paths from Profile
	paths []string // the same as dotted names, e.g. "DFS.SyncFixed"
}

// profileLeaves walks model.Profile by reflection and returns its leaf
// fields, each struct type's fields counted once, in declaration order.
func profileLeaves() []*profileLeaf {
	var out []*profileLeaf
	byKey := map[string]*profileLeaf{}
	var walk func(t reflect.Type, index []int, path string)
	walk = func(t reflect.Type, index []int, path string) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			idx := append(append([]int(nil), index...), i)
			name := strings.TrimPrefix(path+"."+f.Name, ".")
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, idx, name)
				continue
			}
			key := t.String() + "." + f.Name
			l := byKey[key]
			if l == nil {
				l = &profileLeaf{field: f}
				byKey[key] = l
				out = append(out, l)
			}
			l.index = append(l.index, idx)
			l.paths = append(l.paths, name)
		}
	}
	walk(reflect.TypeOf(model.Profile{}), nil, "")
	return out
}

// designSection4 returns the table rows of DESIGN.md §4, the cost-model
// calibration list that a paper: source points into.
func designSection4(t *testing.T) []string {
	data, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "\n## 4.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §4")
	}
	text = text[start+1:]
	if end := strings.Index(text, "\n## "); end >= 0 {
		text = text[:end]
	}
	var rows []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		}
	}
	return rows
}

// TestEveryProfileFieldNamesItsSource is the census of model.Profile: every
// leaf field carries a src tag naming where its value comes from, and the
// named source is checked.
//
//   - paper:<ref> — a row of DESIGN.md §4's table names the field and the
//     paper reference (a figure, a table, a section) its value is set
//     against.
//   - calib:<probe> — the field is a term of that probe's calibration
//     target: doubling it moves model.Targets' expectation.
//   - axis:<file.go> — the experiment or test in that file (a path from the
//     repository root) sets the field.
//
// A field with no tag, or whose source does not hold, is a knob nothing
// justifies: fold it into a constant beside its one user, or derive it.
func TestEveryProfileFieldNamesItsSource(t *testing.T) {
	leaves := profileLeaves()
	rows := designSection4(t)
	kinds := map[string]int{}
	for _, l := range leaves {
		src, ok := l.field.Tag.Lookup("src")
		if !ok {
			t.Errorf("%s: no src tag; name where its value comes from, or fold it into a constant", l.paths[0])
			continue
		}
		kind, ref, _ := strings.Cut(src, ":")
		var err error
		switch kind {
		case "paper":
			err = checkPaper(l, ref, rows)
		case "calib":
			err = checkCalib(l, ref)
		case "axis":
			err = checkAxis(l, ref)
		default:
			err = fmt.Errorf("unknown source kind %q", kind)
		}
		if err != nil {
			t.Errorf("%s: src %q: %v", l.paths[0], src, err)
			continue
		}
		kinds[kind]++
	}
	var parts []string
	for _, k := range []string{"paper", "calib", "axis"} {
		parts = append(parts, fmt.Sprintf("%s %d", k, kinds[k]))
	}
	t.Logf("census: %d leaf fields: %s", len(leaves), strings.Join(parts, ", "))
}

func checkPaper(l *profileLeaf, ref string, rows []string) error {
	if ref == "" {
		return fmt.Errorf("no paper reference")
	}
	for _, row := range rows {
		for _, path := range l.paths {
			if strings.Contains(row, "`"+path+"`") && strings.Contains(row, ref) {
				return nil
			}
		}
	}
	return fmt.Errorf("no row of DESIGN.md §4 names `%s` with %q", l.paths[0], ref)
}

func checkCalib(l *profileLeaf, probe string) error {
	expect := func(p *model.Profile) (int64, bool) {
		for _, x := range model.Targets(p) {
			if x.Probe == probe {
				return int64(x.Expect), true
			}
		}
		return 0, false
	}
	before, ok := expect(model.Baseline())
	if !ok {
		return fmt.Errorf("the baseline has no target %q", probe)
	}
	doubled := model.Baseline()
	v := reflect.ValueOf(doubled).Elem()
	for _, idx := range l.index {
		f := v.FieldByIndex(idx)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(2 * f.Int())
		case reflect.Float64:
			f.SetFloat(2 * f.Float())
		default:
			return fmt.Errorf("a %s cannot be doubled", f.Kind())
		}
	}
	if after, _ := expect(doubled); after == before {
		return fmt.Errorf("doubling the field leaves the %s target at %d ns", probe, before)
	}
	return nil
}

func checkAxis(l *profileLeaf, ref string) error {
	if !strings.HasSuffix(ref, ".go") {
		return fmt.Errorf("%q is not a Go file", ref)
	}
	if strings.HasPrefix(ref, "internal/model/") {
		return fmt.Errorf("a profile's own defaults are not an axis")
	}
	data, err := os.ReadFile(filepath.Join(root, ref))
	if err != nil {
		return err
	}
	set := regexp.MustCompile(`\.` + l.field.Name + `\s*=[^=]|\b` + l.field.Name + `:\s`)
	if !set.Match(data) {
		return fmt.Errorf("%s does not set it", ref)
	}
	return nil
}
