package bench

import (
	"errors"

	"splitft/internal/controller"
	"splitft/internal/core"
	"splitft/internal/model"
	"splitft/internal/simnet"
)

// This file runs the calibration micro-probes on the full simulated stack.
// The probes measure the four paper-anchored costs (a 128 B NCL record, a
// small dfs sync write, a 60 MB MR registration, a controller metadata op);
// model.Calibrate judges them against targets derived from the profile, so
// a change that silently shifts the cost model fails the gate loudly.

// Probes runs the calibration micro-benchmarks under the scale's profile
// and returns the raw measurements (in probe-name order).
func Probes(sc Scale, seed int64) ([]model.Measurement, error) {
	return probes(new(Report), sc, seed)
}

func probes(rep *Report, sc Scale, seed int64) ([]model.Measurement, error) {
	var meas []model.Measurement
	c := newCluster(rep, sc, seed)
	err := c.Run(func(p *simnet.Proc) error {
		fs, err := c.NewFS(p, "calibrate", 0)
		if err != nil {
			return err
		}
		buf := make([]byte, 128)

		// NCL record: synchronous replicated append of 128 B.
		const nclWrites = 400
		nf, err := fs.OpenFile(p, "calib-ncl", core.O_NCL|core.O_CREATE,
			int64(len(buf)*nclWrites+1024))
		if err != nil {
			return err
		}
		start := p.Now()
		for i := 0; i < nclWrites; i++ {
			if _, err := nf.Write(p, buf); err != nil {
				return err
			}
		}
		meas = append(meas, model.Measurement{
			Probe: model.ProbeNCLRecord128,
			Value: (p.Now() - start) / nclWrites,
		})

		// dfs sync write: 128 B write + fdatasync on the disaggregated fs.
		const dfsWrites = 50
		df, err := fs.OpenFile(p, "/calib-dfs", core.O_CREATE, 0)
		if err != nil {
			return err
		}
		start = p.Now()
		for i := 0; i < dfsWrites; i++ {
			if _, err := df.Write(p, buf); err != nil {
				return err
			}
			if err := df.Sync(p); err != nil {
				return err
			}
		}
		meas = append(meas, model.Measurement{
			Probe: model.ProbeDFSSyncWrite128,
			Value: (p.Now() - start) / dfsWrites,
		})

		// MR registration: one 60 MB region on the client node's NIC (the
		// recovery-log size of Table 3).
		nic := c.Fabric.NIC(c.ClientNode.Name())
		if nic == nil {
			nic = c.Fabric.AttachNIC(c.ClientNode)
		}
		region := make([]byte, 60<<20)
		start = p.Now()
		if _, err := nic.RegisterMR(p, region, int64(len(region))); err != nil {
			return err
		}
		meas = append(meas, model.Measurement{
			Probe: model.ProbeMRRegister60MB,
			Value: p.Now() - start,
		})

		// Controller op: a linearizable metadata read (one quorum commit),
		// the "get peer" step of Table 3.
		const ctrlOps = 50
		cc := controller.NewClient(c.Controller, c.ClientNode, "calibrate", 0)
		peerName := c.PeerNodes[0].Name()
		start = p.Now()
		for i := 0; i < ctrlOps; i++ {
			if _, _, err := cc.GetPeer(p, peerName); err != nil {
				return err
			}
		}
		meas = append(meas, model.Measurement{
			Probe: model.ProbeControllerOp,
			Value: (p.Now() - start) / ctrlOps,
		})

		// Chain append: one 64 MB sequential write synced down the extent
		// chains — the large-IO data path of §4. Only meaningful when the
		// profile has an extent plane (LocalFS does not).
		if sc.profile().DFS.ExtentNodes > 0 {
			cf, err := fs.OpenFile(p, "/calib-chain", core.O_CREATE|core.O_EXTENT, 0)
			if err != nil {
				return err
			}
			// Warm-up append: primes the batched extent-ID lease and the tail
			// extent so the measured sync sees no controller round trip.
			if _, err := cf.Write(p, buf); err != nil {
				return err
			}
			if err := cf.Sync(p); err != nil {
				return err
			}
			big := make([]byte, 64<<20)
			if _, err := cf.Write(p, big); err != nil {
				return err
			}
			start = p.Now()
			if err := cf.Sync(p); err != nil {
				return err
			}
			meas = append(meas, model.Measurement{
				Probe: model.ProbeChainAppend64MB,
				Value: p.Now() - start,
			})
		}
		return nil
	})
	return meas, err
}

// calibrate runs the probes and judges them against the profile's targets:
// one cell per probe with its measurement and band, a verdict note, and an
// error when any probe lands outside its band.
func calibrate(sc Scale, seed int64) (Report, error) {
	prof := sc.profile()
	rep := Report{Title: "Calibration: profile " + prof.Name}
	meas, err := probes(&rep, sc, seed)
	if err != nil {
		return rep, err
	}
	verdict := model.Calibrate(prof, meas)
	for _, res := range verdict.Results {
		rep.dur(res.Probe, "measured", res.Measured)
		rep.dur(res.Probe, "expected", res.Target.Expect)
		rep.dur(res.Probe, "lo", res.Target.Lo)
		rep.dur(res.Probe, "hi", res.Target.Hi)
		pass := 0.0
		if res.Pass {
			pass = 1
		}
		rep.add(res.Probe, "ok", pass, "bool")
	}
	if !verdict.Pass() {
		rep.Notes = []string{"FAIL: cost model drifted from calibration targets"}
		return rep, errors.New("calibration failed")
	}
	rep.Notes = []string{"PASS: all probes within tolerance"}
	return rep, nil
}
