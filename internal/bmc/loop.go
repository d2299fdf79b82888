package bmc

import (
	"math"

	"nodecap/internal/telemetry"
)

// Law is a controller tuning resolved against one plant shape: the
// DVFS and gating ranges, the fail-safe floor, and whether the plant
// is tiered (a PriorityPlant, whose actuation stage is tickPriority).
// It is immutable; every node stepped with it shares it.
type Law struct {
	cfg      Config
	slowest  int32 // slowest P-state index
	maxGate  int32
	fsFloor  int32 // resolved fail-safe P-state
	recovery int32 // RecoveryTicks, at least 1
	tiered   bool
}

// NewLaw resolves cfg for a plant with numPStates P-states and gating
// levels 0..maxGating; panics on an invalid cfg. A FailSafePState ≤ 0
// or beyond the slowest state resolves to the slowest state.
func NewLaw(cfg Config, numPStates, maxGating int, tiered bool) Law {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	slowest := numPStates - 1
	floor := slowest
	if f := cfg.FailSafePState; f > 0 && f <= slowest {
		floor = f
	}
	rec := cfg.RecoveryTicks
	if rec < 1 {
		rec = 1
	}
	return Law{
		cfg:      cfg,
		slowest:  int32(slowest),
		maxGate:  int32(maxGating),
		fsFloor:  int32(floor),
		recovery: int32(rec),
		tiered:   tiered,
	}
}

// FailSafeFloor is the P-state the law holds in fail-safe mode.
func (law *Law) FailSafeFloor() int { return int(law.fsFloor) }

// Outcome reports what a Step or Retarget did besides moving the plant.
type Outcome uint8

const (
	// SensorFault: the reading was untrusted (dropout, NaN/Inf,
	// negative, implausible, or stuck).
	SensorFault Outcome = 1 << iota
	// FailSafeEntered / FailSafeExited: the loop latched or released
	// fail-safe (released by recovery or by a policy change).
	FailSafeEntered
	FailSafeExited
	// HoldFloor and Decide are set only under a tiered law, whose
	// caller actuates the tiers itself: HoldFloor asks it to clamp
	// every tier to the fail-safe floor, Decide to run its control
	// decision on Smoothed.
	HoldFloor
	Decide
)

// FailSafeEvent names the trace event of the fail-safe transition in
// o, if there is one.
func (o Outcome) FailSafeEvent() (kind string, ok bool) {
	switch {
	case o&FailSafeEntered != 0:
		return telemetry.EvFailSafeEnter, true
	case o&FailSafeExited != 0:
		return telemetry.EvFailSafeExit, true
	}
	return "", false
}

// Meters are the registry counters the defensive loop feeds. They are
// shared fleet-wide (same registry, same names); per-node history stays
// in Stats. The zero value counts nothing.
type Meters struct {
	sensorFaults   *telemetry.Counter
	failSafeEnters *telemetry.Counter
	failSafeExits  *telemetry.Counter
}

// NewMeters looks the loop's counters up in reg, which may be nil.
func NewMeters(reg *telemetry.Registry) Meters {
	return Meters{
		sensorFaults:   reg.Counter("bmc_sensor_faults_total"),
		failSafeEnters: reg.Counter("bmc_failsafe_entries_total"),
		failSafeExits:  reg.Counter("bmc_failsafe_exits_total"),
	}
}

// Count adds one Step's or Retarget's outcome to the counters.
func (m *Meters) Count(o Outcome) {
	if o&SensorFault != 0 {
		m.sensorFaults.Inc()
	}
	if o&FailSafeEntered != 0 {
		m.failSafeEnters.Inc()
	}
	if o&FailSafeExited != 0 {
		m.failSafeExits.Inc()
	}
}

// Loop is one node's defensive-controller memory: the sensor-vetting
// trackers, the fail-safe latch and the EWMA. The plant position and
// the policy stay with the caller, so a fleet can keep them in the flat
// slices its invariant checker audits. The zero value is a fresh loop.
type Loop struct {
	smoothed   float64
	lastRaw    float64 // last delivered raw reading (stuck detection)
	badTicks   int32   // consecutive untrusted readings
	saneTicks  int32   // consecutive trusted readings while in fail-safe
	stuckRun   int32   // consecutive identical delivered readings
	haveEWMA   bool
	haveRaw    bool
	failSafe   bool
	infeasible bool
}

// Smoothed is the EWMA-filtered power estimate the loop acts on.
func (l *Loop) Smoothed() float64 { return l.smoothed }

// FailSafe reports whether the loop is holding its fail-safe floor.
func (l *Loop) FailSafe() bool { return l.failSafe }

// Infeasible reports whether the policy's cap lies below the platform
// floor.
func (l *Loop) Infeasible() bool { return l.infeasible }

// Health is the loop's defensive status, with the node's fault count
// taken from st.
func (l *Loop) Health(st *Stats) Health {
	return Health{FailSafe: l.failSafe, SensorFaults: st.SensorFaults, InfeasibleCap: l.infeasible}
}

// Retarget is the policy-change transition. The caller runs it only
// when a push changes the policy: re-pushing the policy in force must
// preserve the defensive state, or a reconciliation sweep landing on the
// same cap would reset fail-safe. It clears fail-safe and the
// sensor-vetting trackers, restarts the EWMA when p is disabled (the
// caller then restores full speed), and flags an enabled cap below
// floorWatts (when > 0) as infeasible. The result carries
// FailSafeExited when the operator's changed intent overrode a
// fail-safe hold.
func (l *Loop) Retarget(p Policy, floorWatts float64) Outcome {
	var out Outcome
	if l.failSafe {
		out = FailSafeExited
	}
	*l = Loop{
		smoothed:   l.smoothed,
		haveEWMA:   l.haveEWMA && p.Enabled,
		infeasible: p.Enabled && floorWatts > 0 && p.CapWatts < floorWatts,
	}
	return out
}

// Step runs one control period of the defensive loop for a plant at
// P-state ps and gating level gt under policy pol, given the sensor's
// reading w (delivered=false is a dropout; the reading is ignored while
// the policy is disabled). It vets the reading, runs the fail-safe
// watchdog, folds the reading into the EWMA and — under a uniform law —
// makes the DVFS/gating decision. It returns the position the plant
// should move to and counts its activity into st.
//
// It never steps the plant up on a reading it cannot trust: after
// FaultToleranceTicks untrusted readings it latches fail-safe and holds
// the floor until RecoveryTicks consecutive sane readings, then resumes
// with a fresh EWMA.
//
// Step is one function on purpose: the fleet engine calls it once per
// node-tick, and every further call level costs the batched fleet tick
// measurably.
func (l *Loop) Step(law *Law, pol Policy, w float64, delivered bool, ps, gt int32, st *Stats) (int32, int32, Outcome) {
	st.Ticks++
	if !pol.Enabled {
		return ps, gt, 0
	}
	c := &law.cfg

	// Vet the reading. Dropouts do not advance the stuck-at tracker —
	// a frozen sensor is one that keeps *delivering* the same number.
	trusted := delivered
	if delivered {
		if c.StuckSensorTicks > 0 {
			if l.haveRaw && w == l.lastRaw {
				l.stuckRun++
			} else {
				l.stuckRun = 0
			}
			l.lastRaw = w
			l.haveRaw = true
		}
		trusted = !(math.IsNaN(w) || math.IsInf(w, 0) || w < 0) &&
			!(c.MinPlausibleWatts > 0 && w < c.MinPlausibleWatts) &&
			!(c.MaxPlausibleWatts > 0 && w > c.MaxPlausibleWatts) &&
			!(c.StuckSensorTicks > 0 && int(l.stuckRun) >= c.StuckSensorTicks)
	}
	if !trusted {
		out := SensorFault
		st.SensorFaults++
		l.saneTicks = 0
		l.badTicks++
		if k := c.FaultToleranceTicks; k > 0 && !l.failSafe && int(l.badTicks) >= k {
			l.failSafe = true
			l.haveEWMA = false
			st.FailSafeEntries++
			out |= FailSafeEntered
		}
		if l.failSafe {
			st.FailSafeTicks++
			ps, out = law.holdFloor(ps, out, st)
		}
		return ps, gt, out
	}
	l.badTicks = 0
	var out Outcome
	if l.failSafe {
		st.FailSafeTicks++
		l.saneTicks++
		if l.saneTicks < law.recovery {
			ps, out = law.holdFloor(ps, out, st)
			return ps, gt, out
		}
		// M consecutive sane readings: resume control with a fresh
		// EWMA so stale pre-fault history cannot drive the first step.
		l.failSafe = false
		l.saneTicks = 0
		l.haveEWMA = false
		out = FailSafeExited
	}

	sm, capW := w, pol.CapWatts
	if l.haveEWMA {
		a := c.Smoothing
		sm = a*w + (1-a)*l.smoothed
	}
	l.smoothed, l.haveEWMA = sm, true
	if sm > capW {
		st.OverCapTicks++
	}
	if law.tiered {
		return ps, gt, out | Decide
	}

	// The uniform decision: one actuation per tick.
	target := capW - c.GuardBandWatts
	switch {
	case sm > target:
		// Too hot: slow down (proportionally to the excess), then gate.
		if ps < law.slowest {
			next := int(ps) + 1
			if c.StepWattsPerPState > 0 {
				next += int((sm - target) / c.StepWattsPerPState)
			}
			ps = int32(max(0, min(next, int(law.slowest))))
			st.StepsDown++
		} else if gt < law.maxGate {
			gt++
			st.GateEscalate++
		} else {
			// Fully escalated and still above target: the cap is below
			// the platform's floor (the paper's 120 W rows).
			st.AtFloorTicks++
		}
	default:
		// At or under target. Ungating is cheap headroom-wise and
		// hugely valuable performance-wise, so it triggers on a small
		// undershoot; speeding the clock back up waits for a solid
		// margin.
		if gt > 0 {
			if sm < target-c.GateRelaxHysteresisWatts {
				gt--
				st.GateRelax++
			}
		} else if sm < target-c.HysteresisWatts && ps > 0 {
			ps--
			st.StepsUp++
		}
	}
	return ps, gt, out
}

// holdFloor enforces the fail-safe floor: the plant may be slower than
// the floor (left where the last trusted decision put it), never
// faster. A tiered caller clamps tier by tier on HoldFloor.
func (law *Law) holdFloor(ps int32, out Outcome, st *Stats) (int32, Outcome) {
	if law.tiered {
		return ps, out | HoldFloor
	}
	if ps < law.fsFloor {
		ps = law.fsFloor
		st.StepsDown++
	}
	return ps, out
}
