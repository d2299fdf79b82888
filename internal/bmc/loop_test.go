package bmc

import "testing"

// countingPlant counts actuation calls on top of linearPlant.
type countingPlant struct {
	*linearPlant
	sets int
}

func (p *countingPlant) SetPState(i int)      { p.sets++; p.linearPlant.SetPState(i) }
func (p *countingPlant) SetGatingLevel(l int) { p.sets++; p.linearPlant.SetGatingLevel(l) }

// TestTickActuatesOnlyChanges pins Tick's actuation rule: the plant is
// driven only when the step moves it, once per counted step, so a plant
// that counts transitions or swallows actuations sees exactly the
// controller's decisions.
func TestTickActuatesOnlyChanges(t *testing.T) {
	p := &countingPlant{linearPlant: newLinearPlant()}
	b := New(DefaultConfig(), p)
	if err := b.SetPolicy(Policy{Enabled: true, CapWatts: 200}); err != nil {
		t.Fatal(err)
	}
	run(b, 200)
	if p.sets != 0 {
		t.Fatalf("uncontended cap: %d actuations, want 0", p.sets)
	}
	if err := b.SetPolicy(Policy{Enabled: true, CapWatts: 130}); err != nil {
		t.Fatal(err)
	}
	run(b, 2000)
	st := b.Stats()
	steps := int(st.StepsDown + st.StepsUp + st.GateEscalate + st.GateRelax)
	if steps == 0 || p.sets != steps {
		t.Fatalf("%d actuations for %d counted steps, want equal and > 0", p.sets, steps)
	}
}

// TestStepTieredLeavesActuationToCaller: under a tiered law the step
// vets, watches and smooths but never moves the position; it asks the
// caller to decide (trusted reading) or to hold the floor (fail-safe).
func TestStepTieredLeavesActuationToCaller(t *testing.T) {
	cfg := FailSafeConfig()
	law := NewLaw(cfg, 16, 4, true)
	var l Loop
	var st Stats
	pol := Policy{Enabled: true, CapWatts: 140}

	ps, gt, out := l.Step(&law, pol, 150, true, 3, 1, &st)
	if ps != 3 || gt != 1 || out != Decide {
		t.Fatalf("trusted reading: ps=%d gt=%d out=%b, want 3/1/Decide", ps, gt, out)
	}
	if l.Smoothed() != 150 || st.OverCapTicks != 1 {
		t.Fatalf("smoothed=%v overcap=%d, want 150 and 1", l.Smoothed(), st.OverCapTicks)
	}
	for i := 1; i < cfg.FaultToleranceTicks; i++ {
		if _, _, out = l.Step(&law, pol, 0, false, 3, 1, &st); out != SensorFault {
			t.Fatalf("dropout %d: out=%b, want SensorFault only", i, out)
		}
	}
	ps, gt, out = l.Step(&law, pol, 0, false, 3, 1, &st)
	if want := SensorFault | FailSafeEntered | HoldFloor; ps != 3 || gt != 1 || out != want {
		t.Fatalf("fail-safe entry: ps=%d gt=%d out=%b, want 3/1/%b", ps, gt, out, want)
	}
	if st.StepsDown != 0 {
		t.Fatalf("tiered law counted %d steps down itself", st.StepsDown)
	}
}

// TestRetargetTransition: a changed policy releases fail-safe and
// reports it, restarts the EWMA only on disable, and flags a cap below
// the floor.
func TestRetargetTransition(t *testing.T) {
	law := NewLaw(FailSafeConfig(), 16, 4, false)
	var l Loop
	var st Stats
	pol := Policy{Enabled: true, CapWatts: 140}
	l.Step(&law, pol, 150, true, 0, 0, &st)
	for i := 0; i < 10; i++ {
		l.Step(&law, pol, 0, false, 0, 0, &st)
	}
	if !l.FailSafe() {
		t.Fatal("dropouts did not latch fail-safe")
	}
	if out := l.Retarget(Policy{Enabled: true, CapWatts: 100}, 122); out != FailSafeExited {
		t.Fatalf("retarget out of fail-safe: out=%b, want FailSafeExited", out)
	}
	if l.FailSafe() || !l.Infeasible() {
		t.Fatalf("after retarget: failSafe=%v infeasible=%v, want false/true", l.FailSafe(), l.Infeasible())
	}
	if out := l.Retarget(Policy{}, 122); out != 0 || l.Infeasible() || l.haveEWMA {
		t.Fatalf("disable: out=%b infeasible=%v haveEWMA=%v, want a clean loop", out, l.Infeasible(), l.haveEWMA)
	}
}
