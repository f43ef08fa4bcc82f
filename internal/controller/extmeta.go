package controller

import (
	"errors"
	"fmt"

	"splitft/internal/simnet"
	"splitft/internal/wire"
)

// Extent metadata for the dfs extent plane: every volume's state lives under
// /dfs/<vol>/, beside the per-application ap-map. Two kinds of znode:
//
//   - /dfs/<vol>/next — the volume's extent-ID counter, advanced by a
//     compare-and-set loop (clients allocate in batches and lease the IDs
//     locally, so the loop runs once per ~32 extents, not per extent);
//   - /dfs/<vol>/ext/<id> — a seal record: chain membership and the acked
//     length at which a failed append abandoned the extent.
//
// These ops are sessionless — nothing here is ephemeral, so an extent
// client costs the controller no keep-alive traffic.

// Znode value codes for the extent plane (controller 0x30-0x3f range).
const (
	codeExtCounter wire.Code = 0x39
	codeExtEntry   wire.Code = 0x3a
)

// ExtentEntry is the value stored at /dfs/<vol>/ext/<id>.
type ExtentEntry struct {
	Nodes  []string // chain membership, head first
	Length int64    // committed (acked) length
	Sealed bool
}

// MarshalWire encodes the entry as a flat message.
func (e ExtentEntry) MarshalWire() wire.Msg {
	m := wire.Msg{Code: codeExtEntry, Strs: e.Nodes}
	m.SetInt(0, e.Length)
	m.SetBool(1, e.Sealed)
	return m
}

// UnmarshalWire decodes a codeExtEntry message.
func (e *ExtentEntry) UnmarshalWire(m wire.Msg) error {
	if m.Code != codeExtEntry {
		return fmt.Errorf("controller: decoding %#x as ExtentEntry", uint16(m.Code))
	}
	e.Nodes = m.Strs
	e.Length = m.Int(0)
	e.Sealed = m.Bool(1)
	return nil
}

func extCounterPath(vol string) string { return "/dfs/" + vol + "/next" }

func extEntryPath(vol string, id uint64) string {
	return fmt.Sprintf("/dfs/%s/ext/%d", vol, id)
}

// AllocExtentIDs reserves n consecutive extent IDs for vol and returns the
// first, via compare-and-set on the volume's counter znode. Conflicts
// (another client won the CAS) retry; each round trip is one linearizable
// command.
func (c *Client) AllocExtentIDs(p *simnet.Proc, vol string, n int) (uint64, error) {
	path := extCounterPath(vol)
	for {
		res, err := c.run(p, cmdGet{Path: path}.MarshalWire())
		if err != nil {
			return 0, err
		}
		if !res.Found {
			m := wire.Msg{Code: codeExtCounter, U: [4]uint64{uint64(n)}}
			_, err := c.run(p, cmdCreate{Path: path, Data: m}.MarshalWire())
			if errors.Is(err, ErrExists) {
				continue // lost the creation race; re-read and CAS
			}
			if err != nil {
				return 0, err
			}
			return 0, nil
		}
		next := res.Data.U[0]
		m := wire.Msg{Code: codeExtCounter, U: [4]uint64{next + uint64(n)}}
		_, err = c.run(p, cmdSet{Path: path, Data: m, Version: res.Version}.MarshalWire())
		if errors.Is(err, ErrBadVersion) {
			continue // lost the CAS race; re-read
		}
		if err != nil {
			return 0, err
		}
		return next, nil
	}
}

// SealExtent records an extent's chain membership and committed length
// (create-or-set: the record may exist from an earlier partial seal).
func (c *Client) SealExtent(p *simnet.Proc, vol string, id uint64, nodes []string, length int64) error {
	path := extEntryPath(vol, id)
	data := ExtentEntry{Nodes: nodes, Length: length, Sealed: true}.MarshalWire()
	_, err := c.run(p, cmdCreate{Path: path, Data: data}.MarshalWire())
	if errors.Is(err, ErrExists) {
		_, err = c.run(p, cmdSet{Path: path, Data: data, Version: -1}.MarshalWire())
	}
	return err
}

// GetExtent reads an extent's seal record.
func (c *Client) GetExtent(p *simnet.Proc, vol string, id uint64) (ExtentEntry, bool, error) {
	res, err := c.run(p, cmdGet{Path: extEntryPath(vol, id)}.MarshalWire())
	if err != nil {
		return ExtentEntry{}, false, err
	}
	if !res.Found {
		return ExtentEntry{}, false, nil
	}
	var e ExtentEntry
	if err := e.UnmarshalWire(res.Data); err != nil {
		return ExtentEntry{}, false, err
	}
	return e, true, nil
}

// ExtentMetaClient scopes a controller client to one volume's extent
// metadata. It structurally satisfies dfs.ExtentMeta, so the harness can
// hand it straight to the storage layer without this package importing it.
type ExtentMetaClient struct {
	c   *Client
	vol string
}

// ExtentMeta returns the vol-scoped extent-metadata view of this client.
func (c *Client) ExtentMeta(vol string) *ExtentMetaClient {
	return &ExtentMetaClient{c: c, vol: vol}
}

// AllocIDs reserves n consecutive extent IDs and returns the first.
func (m *ExtentMetaClient) AllocIDs(p *simnet.Proc, n int) (uint64, error) {
	return m.c.AllocExtentIDs(p, m.vol, n)
}

// Seal records an extent's chain membership and committed length.
func (m *ExtentMetaClient) Seal(p *simnet.Proc, id uint64, nodes []string, length int64) error {
	return m.c.SealExtent(p, m.vol, id, nodes, length)
}
