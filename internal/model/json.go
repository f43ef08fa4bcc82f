package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
)

// Save writes the profile to path as indented JSON. Durations serialize as
// integer nanoseconds, bandwidths as bytes/second — the format round-trips
// through Load exactly.
func (p *Profile) Save(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("model: marshal profile: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a profile previously written by Save (or hand-edited). Fields
// absent from the file keep the baseline's value, so a custom profile only
// needs to spell out what it changes. A field the profile does not have (a
// typo, or a knob that has since become a constant) is an error, not a
// value silently dropped.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("model: load profile: %w", err)
	}
	p := Baseline()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err = dec.Decode(p)
	if err == nil && dec.More() {
		err = errors.New("data after the profile object")
	}
	if err != nil {
		return nil, fmt.Errorf("model: parse profile %s: %w", path, err)
	}
	if p.Name == "" {
		p.Name = path
	}
	return p, nil
}

// Resolve turns a -profile flag value into a profile: a built-in name
// (see Names) or a path to a JSON file (anything containing a path
// separator or ending in .json).
func Resolve(nameOrPath string) (*Profile, error) {
	if p, ok := ByName(nameOrPath); ok {
		return p, nil
	}
	if strings.ContainsAny(nameOrPath, "/\\") || strings.HasSuffix(nameOrPath, ".json") {
		return Load(nameOrPath)
	}
	return nil, fmt.Errorf("%w %q (built-in: %s; or pass a .json file)",
		ErrUnknownProfile, nameOrPath, strings.Join(Names(), ", "))
}
