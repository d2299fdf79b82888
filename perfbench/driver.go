package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"nodecap/internal/chaos"
	"nodecap/internal/dcm"
	"nodecap/internal/fleet"
	"nodecap/internal/ipmi"
	"nodecap/internal/shard"
	"nodecap/internal/telemetry"
)

// The fleet driver repeats a chaos scenario's loop from the public
// calls of each layer — fleet.Engine, ipmi.Server/Mux, dcm.Manager,
// dcm/store, shard.Tree — configured as chaos.Run configures them, so
// it can put a span around every call. What it cannot repeat is the
// unexported invariant checker beyond the public calls that checker
// makes; chaos.residual_frac prices that gap.

const maxCapWatts = 180.0

// fleetDriver is the simulated data center the driver builds.
type fleetDriver struct {
	tr      *tracer
	eng     *fleet.Engine
	srvs    []*ipmi.Server
	nameIdx map[string]int
	reg     *telemetry.Registry
	trace   *telemetry.Trace
	clockNS atomic.Int64
}

// driverOut is what one driver run reports.
type driverOut struct {
	setup, run  time.Duration
	handoffs    int
	skipped     map[string]int
	stats       fleet.Stats
	counters    map[string]uint64
	traceEvents uint64
	compactNS   []float64
}

// fleetDriverRun replays scenario s; tr may be nil (untraced).
func fleetDriverRun(s chaos.Scenario, dir string, tr *tracer) (driverOut, error) {
	d := &fleetDriver{
		tr:      tr,
		nameIdx: make(map[string]int, s.Nodes),
		reg:     telemetry.NewRegistry(),
		trace:   telemetry.NewTrace(telemetry.DefaultTraceCapacity),
	}
	d.trace.SetWallClock(nil)
	out := driverOut{skipped: map[string]int{}}
	start := time.Now()
	tr.enter("driver", 0)
	defer tr.leave()

	tr.enter("fleet.new", 0)
	d.eng = fleet.New(fleet.Config{Nodes: s.Nodes, Seed: s.Seed, NamePrefix: "node-", Parallelism: s.Parallelism})
	d.eng.SetTelemetry(d.reg, d.trace)
	tr.leave()
	defer d.eng.Close()
	tr.enter("ipmi.new_server", 0)
	d.srvs = make([]*ipmi.Server, s.Nodes)
	for i := range d.srvs {
		d.nameIdx[d.eng.Name(i)] = i
		d.srvs[i] = ipmi.NewServer(&nodeCtl{eng: d.eng, i: i})
	}
	tr.leave()
	defer func() {
		for _, srv := range d.srvs {
			srv.Close()
		}
	}()

	var err error
	if s.Shards > 0 {
		err = d.runSharded(s, dir, start, &out)
	} else {
		err = d.runSolo(s, dir, start, &out)
	}
	out.stats = d.eng.Stats()
	out.traceEvents = d.trace.Total()
	return out, err
}

// newManager configures a manager exactly as the chaos harness does:
// deterministic clock, 1 ns backoff and staleness, one poll worker,
// the gray-failure breaker scaled to the simulated clock, and no
// per-record fsync.
func (d *fleetDriver) newManager(dir string) (*dcm.Manager, error) {
	mgr := dcm.NewManager(d.dial)
	mgr.RetryBaseDelay = time.Nanosecond
	mgr.RetryMaxDelay = time.Nanosecond
	mgr.StaleAfter = time.Nanosecond
	mgr.Clock = func() time.Time { return time.Unix(0, d.clockNS.Add(1000)) }
	mgr.PollConcurrency = 1
	mgr.Breaker = dcm.BreakerConfig{
		FailureThreshold: 3,
		SlowThreshold:    50 * time.Microsecond,
		SlowConsecutive:  2,
		OpenTimeout:      60 * time.Microsecond,
		FlapWindow:       5 * time.Millisecond,
		FlapMax:          4,
		QuarantineHold:   120 * time.Microsecond,
	}
	mgr.PollBudget = 400 * time.Microsecond
	mgr.SetTelemetry(d.reg, d.trace)
	if err := mgr.OpenStateDir(dir); err != nil {
		return nil, fmt.Errorf("opening state dir: %w", err)
	}
	mgr.Store().SetSync(false)
	return mgr, nil
}

func (d *fleetDriver) dial(addr string) (dcm.BMC, error) {
	i, ok := d.nameIdx[addr]
	if !ok {
		return nil, fmt.Errorf("unknown address %q", addr)
	}
	return &memLink{d: d, i: i}, nil
}

func budgetOf(s chaos.Scenario) float64 {
	if s.BudgetWatts > 0 {
		return s.BudgetWatts
	}
	return chaos.DefaultBudgetPerNodeW * float64(s.Nodes)
}

func (d *fleetDriver) runSolo(s chaos.Scenario, dir string, start time.Time, out *driverOut) error {
	tr := d.tr
	tr.enter("dcm.open", 0)
	mgr, err := d.newManager(dir)
	tr.leave()
	if err != nil {
		return err
	}
	defer mgr.Close()
	group := make([]string, s.Nodes)
	for i := range group {
		name := d.eng.Name(i)
		group[i] = name
		tr.enter("dcm.add_node", int64(i))
		err := mgr.AddNode(name, name)
		tr.leave()
		if err != nil {
			return fmt.Errorf("registering %s: %w", name, err)
		}
		// The harness reads the registration back through Nodes once
		// per added node; so does the driver.
		tr.enter("dcm.nodes", int64(i))
		found := false
		for _, st := range mgr.Nodes() {
			found = found || st.Name == name
		}
		tr.leave()
		if !found {
			return fmt.Errorf("node %s missing after AddNode", name)
		}
	}
	sort.Strings(group)
	out.setup = time.Since(start)

	budget := budgetOf(s)
	events := s.Events
	next := 0
	for tick := 0; tick < s.Ticks; tick++ {
		req := int64(tick)
		d.trace.SetTick(req)
		for ; next < len(events) && events[next].Tick <= tick; next++ {
			d.applyNodeEvent(events[next], out)
		}
		tr.enter("fleet.tick", req)
		d.eng.Tick(1)
		tr.leave()
		if tick%s.PollEvery == s.PollEvery-1 {
			tr.enter("dcm.poll", req)
			mgr.Poll()
			tr.leave()
		}
		if tick%s.RebalanceEvery == s.RebalanceEvery-1 {
			tr.enter("dcm.apply_budget", req)
			_, _ = mgr.ApplyBudget(budget, group) // failed pushes are journaled and retried
			tr.leave()
		}
		tr.enter("dcm.desired_cap_sum", req)
		mgr.DesiredCapSum()
		tr.leave()
	}
	out.run = time.Since(start) - out.setup
	out.counters = d.reg.Snapshot().Counters
	out.compactNS, err = d.compact(mgr)
	return err
}

// applyNodeEvent applies the node-scoped event kinds that have a
// public call; every other kind is counted as skipped.
func (d *fleetDriver) applyNodeEvent(e chaos.Event, out *driverOut) {
	switch e.Kind {
	case chaos.EvSensorStorm, chaos.EvSensorHeal:
		d.tr.enter("fleet.set_dropout", int64(e.Tick))
		d.eng.SetDropout(e.Node, e.Kind == chaos.EvSensorStorm)
		d.tr.leave()
	default:
		out.skipped[e.Kind]++
	}
}

// compact times Store.Compact on each manager's store at the state
// size the run left behind.
func (d *fleetDriver) compact(mgrs ...*dcm.Manager) ([]float64, error) {
	var ns []float64
	for _, mgr := range mgrs {
		d.tr.enter("store.compact", 0)
		t0 := time.Now()
		err := mgr.Store().Compact()
		elapsed := time.Since(t0)
		d.tr.leave()
		if err != nil {
			return nil, fmt.Errorf("compacting: %w", err)
		}
		ns = append(ns, float64(elapsed))
	}
	return ns, nil
}

// leaf is one sharded-mode leaf manager.
type leaf struct {
	name        string
	mgr         *dcm.Manager
	isolated    bool
	staleBudget float64
}

func (d *fleetDriver) runSharded(s chaos.Scenario, dir string, start time.Time, out *driverOut) error {
	tr := d.tr
	tr.enter("ipmi.new_mux", 0)
	mux := ipmi.NewMux()
	for i, srv := range d.srvs {
		mux.Register(uint32(i), srv)
	}
	tr.leave()
	tree := shard.NewTree(uint64(s.Seed), 0, &batchLink{d: d, mux: mux}, shard.SnapshotPathIn(dir))
	tree.SetTelemetry(d.trace)
	leaves := make([]*leaf, s.Shards)
	defer func() {
		for _, lf := range leaves {
			if lf != nil {
				lf.mgr.Close()
			}
		}
	}()
	for li := range leaves {
		lf := &leaf{name: fmt.Sprintf("leaf-%02d", li)}
		tr.enter("dcm.open", int64(li))
		mgr, err := d.newManager(filepath.Join(dir, lf.name+"-g0"))
		tr.leave()
		if err != nil {
			return err
		}
		lf.mgr = mgr
		leaves[li] = lf
		tr.enter("shard.add_leaf", int64(li))
		_, err = tree.AddLeaf(lf.name, mgr)
		tr.leave()
		if err != nil {
			return fmt.Errorf("adding %s: %w", lf.name, err)
		}
	}
	infos := make([]shard.NodeInfo, s.Nodes)
	for i := range infos {
		infos[i] = shard.NodeInfo{Name: d.eng.Name(i), Addr: d.eng.Name(i), ID: uint32(i)}
	}
	tr.enter("shard.add_nodes", 0)
	err := tree.AddNodes(infos)
	tr.leave()
	if err != nil {
		return fmt.Errorf("registering fleet: %w", err)
	}
	out.setup = time.Since(start)

	budget := budgetOf(s)
	events := s.Events
	next := 0
	for tick := 0; tick < s.Ticks; tick++ {
		req := int64(tick)
		d.trace.SetTick(req)
		for ; next < len(events) && events[next].Tick <= tick; next++ {
			e := events[next]
			lf := leaves[e.Leaf]
			switch e.Kind {
			case chaos.EvLeafIsolate:
				if lf.isolated {
					continue
				}
				tr.enter("shard.seize", req)
				moved, err := tree.Seize(lf.name)
				tr.leave()
				if err != nil {
					return fmt.Errorf("isolating %s: %w", lf.name, err)
				}
				lf.isolated = true
				out.handoffs += moved
			case chaos.EvLeafRejoin:
				if !lf.isolated {
					continue
				}
				tr.enter("shard.rejoin", req)
				moved, err := tree.Rejoin(lf.name, lf.mgr)
				tr.leave()
				if err != nil {
					return fmt.Errorf("rejoining %s: %w", lf.name, err)
				}
				lf.isolated = false
				out.handoffs += moved
			default:
				d.applyNodeEvent(e, out)
			}
		}
		tr.enter("fleet.tick", req)
		d.eng.Tick(1)
		tr.leave()
		if tick%s.PollEvery == s.PollEvery-1 {
			for _, lf := range leaves {
				tr.enter("dcm.poll", req)
				lf.mgr.Poll()
				tr.leave()
			}
		}
		if tick%s.RebalanceEvery == s.RebalanceEvery-1 {
			tr.enter("shard.rebalance", req)
			res, _ := tree.Rebalance(budget) // pushes to isolated owners fail by design
			tr.leave()
			for _, lf := range leaves {
				if g, ok := res.Leaves[lf.name]; ok {
					lf.staleBudget = g
				}
			}
			// An isolated leaf keeps re-applying its last grant: the
			// stale writer the plant-side fence refuses.
			for _, lf := range leaves {
				if !lf.isolated {
					continue
				}
				tr.enter("dcm.nodes", req)
				sts := lf.mgr.Nodes()
				tr.leave()
				group := make([]string, len(sts))
				for i, st := range sts {
					group[i] = st.Name
				}
				sort.Strings(group)
				if len(group) > 0 {
					tr.enter("dcm.apply_budget", req)
					_, _ = lf.mgr.ApplyBudget(lf.staleBudget, group)
					tr.leave()
				}
			}
		}
		tr.enter("shard.desired_sum", req)
		tree.DesiredSum()
		tr.leave()
	}
	out.run = time.Since(start) - out.setup
	out.counters = d.reg.Snapshot().Counters
	mgrs := make([]*dcm.Manager, len(leaves))
	for i, lf := range leaves {
		mgrs[i] = lf.mgr
	}
	out.compactNS, err = d.compact(mgrs...)
	return err
}

// nodeCtl is engine node i's BMC management surface, answered the way
// the chaos harness answers it.
type nodeCtl struct {
	eng *fleet.Engine
	i   int
}

func (c *nodeCtl) DeviceInfo() ipmi.DeviceInfo {
	return ipmi.DeviceInfo{DeviceID: 0x20, FirmwareMajor: 1, ManufacturerID: 343, ProductID: 0x0C4A}
}

func (c *nodeCtl) PowerReading() ipmi.PowerReading {
	w := c.eng.ManagementWatts(c.i)
	return ipmi.PowerReading{CurrentWatts: w, AverageWatts: w}
}

func (c *nodeCtl) SetPowerLimit(lim ipmi.PowerLimit) error {
	c.eng.PushPolicy(c.i, lim.Enabled, lim.CapWatts, lim.Epoch)
	return nil
}

func (c *nodeCtl) PowerLimit() ipmi.PowerLimit {
	enabled, capW := c.eng.Policy(c.i)
	return ipmi.PowerLimit{Enabled: enabled, CapWatts: capW}
}

func (c *nodeCtl) PStateInfo() ipmi.PStateInfo {
	i := c.eng.PState(c.i)
	return ipmi.PStateInfo{Index: uint8(i), Count: fleet.NumPStates, FreqMHz: uint16(3000 - 120*i)}
}

func (c *nodeCtl) GatingLevel() int { return c.eng.GatingLevel(c.i) }

func (c *nodeCtl) Capabilities() ipmi.Capabilities {
	return ipmi.Capabilities{MinCapWatts: c.eng.FloorWatts(), MaxCapWatts: maxCapWatts}
}

func (c *nodeCtl) Health() ipmi.Health {
	h := c.eng.NodeHealth(c.i)
	return ipmi.Health{FailSafe: h.FailSafe, SensorFaults: uint32(h.SensorFaults), InfeasibleCap: h.InfeasibleCap}
}

// memLink is the driver's in-process dcm.BMC: each call encodes a real
// wire frame, decodes it as the node would, dispatches it through the
// node's ipmi.Server, and round-trips the response the same way.
type memLink struct {
	d   *fleetDriver
	i   int
	seq uint32
}

func roundTrip(f ipmi.Frame) (ipmi.Frame, error) {
	b, err := f.Marshal()
	if err != nil {
		return ipmi.Frame{}, err
	}
	return ipmi.ReadFrame(bytes.NewReader(b))
}

func (l *memLink) call(cmd uint8, payload []byte) ([]byte, error) {
	tr := l.d.tr
	l.seq++
	tr.enter("ipmi.codec", -1)
	req, err := roundTrip(ipmi.Frame{Seq: l.seq, NetFn: ipmi.NetFnOEM, Cmd: cmd, Payload: payload})
	tr.leave()
	if err != nil {
		return nil, err
	}
	tr.enter("ipmi.handle", -1)
	resp := l.d.srvs[l.i].Handle(req)
	tr.leave()
	tr.enter("ipmi.codec", -1)
	back, err := roundTrip(resp)
	tr.leave()
	if err != nil {
		return nil, err
	}
	if len(back.Payload) == 0 {
		return nil, errors.New("empty response payload")
	}
	switch cc := back.Payload[0]; cc {
	case ipmi.CCOK:
	case ipmi.CCStaleEpoch:
		return nil, ipmi.ErrStaleEpoch
	default:
		return nil, fmt.Errorf("completion code %#02x", cc)
	}
	return back.Payload[1:], nil
}

func (l *memLink) GetDeviceID() (ipmi.DeviceInfo, error) {
	p, err := l.call(ipmi.CmdGetDeviceID, nil)
	if err != nil {
		return ipmi.DeviceInfo{}, err
	}
	return ipmi.DecodeDeviceInfo(p)
}

func (l *memLink) GetPowerReading() (ipmi.PowerReading, error) {
	p, err := l.call(ipmi.CmdGetPowerReading, nil)
	if err != nil {
		return ipmi.PowerReading{}, err
	}
	return ipmi.DecodePowerReading(p)
}

func (l *memLink) SetPowerLimit(lim ipmi.PowerLimit) error {
	_, err := l.call(ipmi.CmdSetPowerLimit, ipmi.EncodePowerLimit(lim))
	return err
}

func (l *memLink) GetPowerLimit() (ipmi.PowerLimit, error) {
	p, err := l.call(ipmi.CmdGetPowerLimit, nil)
	if err != nil {
		return ipmi.PowerLimit{}, err
	}
	return ipmi.DecodePowerLimit(p)
}

func (l *memLink) GetPStateInfo() (ipmi.PStateInfo, error) {
	p, err := l.call(ipmi.CmdGetPStateInfo, nil)
	if err != nil {
		return ipmi.PStateInfo{}, err
	}
	return ipmi.DecodePStateInfo(p)
}

func (l *memLink) GetGatingLevel() (int, error) {
	p, err := l.call(ipmi.CmdGetGatingLevel, nil)
	if err != nil {
		return 0, err
	}
	if len(p) < 1 {
		return 0, errors.New("short gating payload")
	}
	return int(p[0]), nil
}

func (l *memLink) GetCapabilities() (ipmi.Capabilities, error) {
	p, err := l.call(ipmi.CmdGetCapabilities, nil)
	if err != nil {
		return ipmi.Capabilities{}, err
	}
	return ipmi.DecodeCapabilities(p)
}

func (l *memLink) GetHealth() (ipmi.Health, error) {
	p, err := l.call(ipmi.CmdGetHealth, nil)
	if err != nil {
		return ipmi.Health{}, err
	}
	return ipmi.DecodeHealth(p)
}

func (l *memLink) Close() error { return nil }

// batchLink is the aggregator's batch plane: real batch frames through
// ipmi.Mux.Handle over the same per-node servers the leaves dial.
type batchLink struct {
	d   *fleetDriver
	mux *ipmi.Mux
	seq uint32
}

func (c *batchLink) exchange(cmd uint8, payload []byte) ([]byte, error) {
	c.seq++
	c.d.tr.enter("ipmi.handle", -1)
	resp := c.mux.Handle(ipmi.Frame{Seq: c.seq, NetFn: ipmi.NetFnOEM, Cmd: cmd, Payload: payload})
	c.d.tr.leave()
	if len(resp.Payload) < 1 {
		return nil, io.ErrUnexpectedEOF
	}
	if cc := resp.Payload[0]; cc != ipmi.CCOK {
		return nil, fmt.Errorf("batch completion code %#02x", cc)
	}
	return resp.Payload[1:], nil
}

func (c *batchLink) BatchPoll(ids []uint32) ([]ipmi.BatchPollResult, error) {
	payload, err := ipmi.EncodeBatchPollRequest(ids)
	if err != nil {
		return nil, err
	}
	b, err := c.exchange(ipmi.CmdBatchPoll, payload)
	if err != nil {
		return nil, err
	}
	return ipmi.DecodeBatchPollResponse(b)
}

func (c *batchLink) BatchSet(entries []ipmi.BatchSetEntry) ([]ipmi.BatchSetResult, error) {
	payload, err := ipmi.EncodeBatchSetRequest(entries)
	if err != nil {
		return nil, err
	}
	b, err := c.exchange(ipmi.CmdBatchSet, payload)
	if err != nil {
		return nil, err
	}
	return ipmi.DecodeBatchSetResponse(b)
}
