package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"nodecap/internal/chaos"
)

// fleetScenario builds the workload's chaos scenario. The seed picks
// the event schedule and the fleet's noise streams; sizes and cadences
// are the workload's own.
func fleetScenario(workload string, seed int64, par int) (chaos.Scenario, error) {
	sp, ok := fleetSpecs[workload]
	if !ok {
		return chaos.Scenario{}, fmt.Errorf("unknown fleet workload %q", workload)
	}
	s, err := chaos.Build(sp.scenario, seed, sp.ticks, sp.nodes)
	if err != nil {
		return chaos.Scenario{}, err
	}
	s.PollEvery = sp.pollEvery
	s.RebalanceEvery = sp.rebalanceEvery
	s.Parallelism = par
	return s, nil
}

// setupScenario is s cut to its set-up: one tick and no events.
func setupScenario(s chaos.Scenario) chaos.Scenario {
	s.Ticks = 1
	s.Events = nil
	return s
}

// runChaos runs s through chaos.Run with its journal in a fresh
// directory under stateRoot, and times the whole call.
func runChaos(s chaos.Scenario, stateRoot string) (chaos.Verdict, time.Duration, error) {
	dir, err := os.MkdirTemp(stateRoot, "chaos-")
	if err != nil {
		return chaos.Verdict{}, 0, err
	}
	defer os.RemoveAll(dir)
	s.StateDir = dir
	start := time.Now()
	v, err := chaos.Run(s)
	return v, time.Since(start), err
}

// verdictDigest hashes the verdict JSON: every simulated statistic a
// chaos run reports.
func verdictDigest(v chaos.Verdict) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestOf(b), nil
}

// verdictChecks counts the invariant checks a verdict asserted.
func verdictChecks(v chaos.Verdict) int64 {
	var n int64
	for _, c := range v.Checks {
		n += int64(c)
	}
	return n
}
