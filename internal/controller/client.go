package controller

import (
	"errors"
	"fmt"

	"splitft/internal/raft"
	"splitft/internal/simnet"
	"splitft/internal/wire"
)

// Client is a typed controller client used by ncl-lib and by log peers.
// Every operation is a linearizable command through the controller's Raft
// log.
type Client struct {
	svc     *Service
	node    *simnet.Node
	session string
	fencing int64
	rc      *raft.Client
	started bool
	// owned are the ephemerals this client created, in creation order, each
	// with the data it last wrote there: what the keep-alive proc re-creates
	// once it has re-established an expired session.
	owned []*ephemeral
}

type ephemeral struct {
	path string
	data wire.Msg
	lost bool // dropped with the session that expired; not yet re-created
}

// NewClient creates a controller client for the given node. name identifies
// the principal (application or peer identity); fencing is its incarnation
// number, used for ephemeral takeover on recovery. The underlying session id
// is unique per (name, node, fencing) so concurrent instances of the same
// principal hold distinct sessions and arbitration happens on the znodes'
// fencing tokens, as in ZooKeeper where each client connection is its own
// session.
func NewClient(svc *Service, node *simnet.Node, name string, fencing int64) *Client {
	rc := raft.NewClient(svc.cluster, node)
	// Fast per-attempt failover: keep-alives must land within a fraction of
	// the session timeout even right after a partition heals.
	rc.CallTimeout = svc.cfg.SessionTimeout / 6
	return &Client{
		svc:     svc,
		node:    node,
		session: fmt.Sprintf("%s@%s#%d", name, node.Name(), fencing),
		fencing: fencing,
		rc:      rc,
	}
}

// cmdOp names a znode command for span attribution.
func cmdOp(code wire.Code) string {
	switch code {
	case codeNewSession:
		return "new-session"
	case codeKeepAlive:
		return "keep-alive"
	case codeCreate:
		return "create"
	case codeSet:
		return "set"
	case codeDelete:
		return "delete"
	case codeGet:
		return "get"
	case codeList:
		return "list"
	default:
		return fmt.Sprintf("cmd-%#x", uint16(code))
	}
}

// run proposes one encoded command and decodes the opResult.
func (c *Client) run(p *simnet.Proc, cmd wire.Msg) (opResult, error) {
	if p.Tracing() {
		sp := p.StartSpan("controller", cmdOp(cmd.Code))
		defer p.EndSpan(sp)
	}
	res, err := c.rc.Propose(p, cmd)
	if err != nil {
		return opResult{}, err
	}
	var r opResult
	r.UnmarshalWire(res) //nolint:errcheck
	if r.Err != nil {
		return r, r.Err
	}
	return r, nil
}

// establishSession registers (or, after an expiry, re-registers) the
// client's session. A non-empty dir asks the reply to list the names under
// that prefix.
func (c *Client) establishSession(p *simnet.Proc, dir string) ([]string, error) {
	r, err := c.run(p, cmdNewSession{
		Session: c.session,
		At:      p.Now(),
		Timeout: c.svc.cfg.SessionTimeout,
		Dir:     dir,
	}.MarshalWire())
	return r.Paths, err
}

// StartSession registers the client's session and spawns the keep-alive
// proc (which dies with the node, letting the session expire — exactly the
// ZooKeeper ephemeral-node behaviour the paper relies on). Until it is
// called, ephemeral ops surface ErrSession exactly like a sessionless
// ZooKeeper client would. A non-empty app makes the session's one proposal
// also return the names of app's ap-map entries, sorted: its directory as
// of the session start, which costs no extra round trip. A peer passes "".
// A session the keep-alive re-establishes after an expiry lists nothing.
func (c *Client) StartSession(p *simnet.Proc, app string) ([]string, error) {
	dir := ""
	if app != "" {
		dir = fileKey(app, "")
	}
	names, err := c.establishSession(p, dir)
	if err != nil {
		return nil, err
	}
	if !c.started {
		c.started = true
		c.node.Go("ctrl-keepalive:"+c.session, func(kp *simnet.Proc) {
			for {
				kp.Sleep(keepAlive(c.svc.cfg))
				_, err := c.run(kp, cmdKeepAlive{Session: c.session, At: kp.Now()}.MarshalWire())
				if errors.Is(err, ErrSession) {
					_, err = c.establishSession(kp, "")
					if err == nil {
						// Expired (e.g. after a partition), and the
						// ephemerals with it.
						for _, e := range c.owned {
							e.lost = true
						}
					}
				}
				c.recreate(kp)
			}
		})
	}
	return names, nil
}

// createEphemeral creates the znode this client's session keeps alive,
// taking over from an owner with a strictly lower fencing token.
func (c *Client) createEphemeral(p *simnet.Proc, path string, data wire.Msg) error {
	_, err := c.run(p, c.ephemeralCmd(path, data))
	if err == nil && c.own(path) == nil {
		c.owned = append(c.owned, &ephemeral{path: path, data: data})
	}
	return err
}

func (c *Client) ephemeralCmd(path string, data wire.Msg) wire.Msg {
	return cmdCreate{
		Path: path, Data: data,
		Ephemeral: true, Session: c.session, Fencing: c.fencing, Takeover: true,
	}.MarshalWire()
}

func (c *Client) own(path string) *ephemeral {
	for _, e := range c.owned {
		if e.path == path {
			return e
		}
	}
	return nil
}

// recreate puts back the ephemerals that an expired session took with it,
// each with the data last written there, under the fencing rules of the
// first create: a znode a newer instance took over meanwhile answers
// ErrExists and stays that instance's. Anything else is tried again a
// keep-alive period later. A healthy session has nothing lost.
func (c *Client) recreate(kp *simnet.Proc) {
	for _, e := range c.owned {
		if !e.lost {
			continue
		}
		_, err := c.run(kp, c.ephemeralCmd(e.path, e.data))
		e.lost = err != nil && !errors.Is(err, ErrExists)
	}
}

// ---- Peer registry (/peers) ----

func peerPath(name string) string { return "/peers/" + name }

// RegisterPeer advertises a log peer and its lendable memory (§4.3). The
// registration is ephemeral: it disappears if the peer dies.
func (c *Client) RegisterPeer(p *simnet.Proc, info PeerInfo) error {
	return c.createEphemeral(p, peerPath(info.Name), info.MarshalWire())
}

// PublishPeer republishes a peer's full registration in one proposal (the
// value is a hint, so unconditional set is correct). ErrNotFound means the
// registration expired with its session: the update is what the keep-alive
// proc of the client that registered the peer re-creates it with.
func (c *Client) PublishPeer(p *simnet.Proc, info PeerInfo) error {
	path, data := peerPath(info.Name), info.MarshalWire()
	if e := c.own(path); e != nil {
		e.data = data
	}
	_, err := c.run(p, cmdSet{Path: path, Data: data, Version: -1}.MarshalWire())
	return err
}

// ListPeers returns every registered peer: the registry ncl-lib filters and
// ranks allocation candidates from. An entry is a hint — a listed peer can
// still reject the allocation (§4.3).
func (c *Client) ListPeers(p *simnet.Proc) ([]PeerInfo, error) {
	res, err := c.run(p, cmdList{Prefix: "/peers/"}.MarshalWire())
	if err != nil {
		return nil, err
	}
	out := make([]PeerInfo, len(res.Datas))
	for i, d := range res.Datas {
		out[i].UnmarshalWire(d) //nolint:errcheck
	}
	return out, nil
}

// GetPeer returns one peer's registration.
func (c *Client) GetPeer(p *simnet.Proc, name string) (PeerInfo, bool, error) {
	res, err := c.run(p, cmdGet{Path: peerPath(name)}.MarshalWire())
	if err != nil {
		return PeerInfo{}, false, err
	}
	if !res.Found {
		return PeerInfo{}, false, nil
	}
	var info PeerInfo
	info.UnmarshalWire(res.Data) //nolint:errcheck
	return info, true, nil
}

// ---- ap-map (/apps/<app>/<file>) ----

func fileKey(app, file string) string { return "/apps/" + app + "/" + file }

// SetAppFile publishes the ap-map entry for (app, file) in one proposal,
// conditional on the znode version the caller last saw: 0 — it saw no entry —
// creates it (ErrExists if there is one), anything else is a compare-and-set
// (ErrBadVersion). It returns the entry's new version.
func (c *Client) SetAppFile(p *simnet.Proc, app, file string, e FileEntry, version int64) (int64, error) {
	path, data := fileKey(app, file), e.MarshalWire()
	cmd := cmdSet{Path: path, Data: data, Version: version}.MarshalWire()
	if version == 0 {
		cmd = cmdCreate{Path: path, Data: data}.MarshalWire()
	}
	r, err := c.run(p, cmd)
	return r.Version, err
}

// GetAppFile reads the ap-map entry for (app, file).
func (c *Client) GetAppFile(p *simnet.Proc, app, file string) (FileEntry, int64, bool, error) {
	path := fileKey(app, file)
	res, err := c.run(p, cmdGet{Path: path}.MarshalWire())
	if err != nil {
		return FileEntry{}, 0, false, err
	}
	if !res.Found {
		return FileEntry{}, 0, false, nil
	}
	var e FileEntry
	e.UnmarshalWire(res.Data) //nolint:errcheck
	return e, res.Version, true, nil
}

// DeleteAppFile removes the ap-map entry (on ncl-file release).
func (c *Client) DeleteAppFile(p *simnet.Proc, app, file string) error {
	path := fileKey(app, file)
	_, err := c.run(p, cmdDelete{Path: path, Version: -1}.MarshalWire())
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	return err
}

// ListAppFiles returns the ncl files recorded for app (used on recovery to
// find what must be restored from peers).
func (c *Client) ListAppFiles(p *simnet.Proc, app string) (map[string]FileEntry, error) {
	prefix := "/apps/" + app + "/"
	res, err := c.run(p, cmdList{Prefix: prefix}.MarshalWire())
	if err != nil {
		return nil, err
	}
	out := make(map[string]FileEntry, len(res.Paths))
	for i, path := range res.Paths {
		var e FileEntry
		e.UnmarshalWire(res.Datas[i]) //nolint:errcheck
		out[path[len(prefix):]] = e
	}
	return out, nil
}

// ---- Single-instance lock (/servers/<app>) ----

// AcquireServerLock claims the application's single-instance znode (§4.7).
// A fresh instance takes over from a crashed predecessor with a lower
// fencing token; concurrent instances with the same token race and exactly
// one wins (the paper's ZooKeeper guarantee).
func (c *Client) AcquireServerLock(p *simnet.Proc, app string) error {
	err := c.createEphemeral(p, "/servers/"+app, ServerInfo{Node: c.node.Name(), Fencing: c.fencing}.MarshalWire())
	if errors.Is(err, ErrExists) {
		return fmt.Errorf("%w: another instance of %s is active", ErrFenced, app)
	}
	return err
}
