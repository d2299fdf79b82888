package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"nodecap/internal/workloads/sar"
	"nodecap/internal/workloads/stereo"
)

// small shrinks every workload for the duration of a test.
func small(t *testing.T) {
	t.Helper()
	oldSpecs, oldInputs := fleetSpecs, sweepInputs
	fleetSpecs = map[string]fleetSpec{
		"fleet-solo":    {scenario: "sensor-storm", nodes: 40, ticks: 600, pollEvery: 20, rebalanceEvery: 100},
		"fleet-sharded": {scenario: "shard-handoff", nodes: 64, ticks: 600, pollEvery: 20, rebalanceEvery: 50},
	}
	sweepInputs = func() (sar.Config, stereo.Config) { return sar.SmallConfig(), stereo.SmallConfig() }
	t.Cleanup(func() { fleetSpecs, sweepInputs = oldSpecs, oldInputs })
}

func testOptions(t *testing.T, workload string) options {
	return options{workload: workload, seed: 3, seconds: 0.01, par: 2, stateRoot: t.TempDir(), traceDir: t.TempDir()}
}

// benchmarkJSON reads the metric names and units BENCHMARK.json lists.
func benchmarkJSON(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func printedUnits(res result) map[string]string {
	out := map[string]string{}
	for name, v := range res.Metrics {
		out[name] = v.Unit
	}
	return out
}

// Every metric a run prints is listed in BENCHMARK.json with the same
// unit, and every listed metric is printed, on every workload.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	small(t)
	e2e, layer := benchmarkJSON(t)
	for _, w := range workloadNames {
		res, err := runEndToEnd(testOptions(t, w))
		if err != nil {
			t.Fatalf("%s end to end: %v", w, err)
		}
		if got := printedUnits(res); !reflect.DeepEqual(got, e2e) {
			t.Errorf("%s --trace 0 printed %v, BENCHMARK.json lists %v", w, got, e2e)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s --trace 0: correct=%v attempted=%d", w, res.Correct, res.Attempted)
		}
		res, err = runTraced(testOptions(t, w))
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		if got := printedUnits(res); !reflect.DeepEqual(got, layer) {
			t.Errorf("%s --trace 1 printed %v, BENCHMARK.json lists %v", w, got, layer)
		}
		// The traced run is correct only if the driver replayed what
		// the program's own entry point simulated.
		if !res.Correct {
			t.Errorf("%s --trace 1 reported incorrect output", w)
		}
	}
}

// The seed picks the chaos schedule and nothing else about the
// workload: sizes, cadences and mode stay fixed.
func TestSeedChangesOnlyTheSchedule(t *testing.T) {
	for w := range fleetSpecs {
		a, err := fleetScenario(w, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fleetScenario(w, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Events, b.Events) {
			t.Errorf("%s: seeds 1 and 2 built the same schedule", w)
		}
		a.Seed, a.Events, b.Seed, b.Events = 0, nil, 0, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the seed changed more than the schedule:\n%+v\n%+v", w, a, b)
		}
	}
	a, b := machineConfig(1)(gridSeed(3)), machineConfig(2)(gridSeed(3))
	if a.Seed == b.Seed {
		t.Error("paper-sweep: seeds 1 and 2 gave the same machine seed")
	}
	a.Seed = b.Seed
	if !reflect.DeepEqual(a, b) {
		t.Error("paper-sweep: the seed changed more than the machine seed")
	}
}

// checkSpanTree asserts every parent exists and was opened before its
// child, every child lies inside its parent, and no self time is
// negative.
func checkSpanTree(t *testing.T, name string, tr *tracer) {
	t.Helper()
	if len(tr.spans) == 0 || tr.spans[0].parent != -1 {
		t.Fatalf("%s: span 0 is not a root", name)
	}
	for i, s := range tr.spans {
		if s.end < s.start {
			t.Errorf("%s: span %d (%s) never closed or ends before it starts", name, i, tr.names[s.name])
		}
		if i == 0 {
			continue
		}
		if s.parent < 0 || int(s.parent) >= i {
			t.Fatalf("%s: span %d (%s) has parent %d", name, i, tr.names[s.name], s.parent)
		}
		if p := tr.spans[s.parent]; s.start < p.start || s.end > p.end {
			t.Errorf("%s: span %d (%s) outside its parent %s", name, i, tr.names[s.name], tr.names[p.name])
		}
	}
	for i, self := range tr.selfTimes() {
		if self < 0 {
			t.Errorf("%s: span %d (%s) has negative self time %d", name, i, tr.names[tr.spans[i].name], self)
		}
	}
	if u := tr.unattributed(); u < 0 || u > 1 {
		t.Errorf("%s: unattributed share %v outside [0, 1]", name, u)
	}
}

func TestTracedSpanTreeIsWellFormed(t *testing.T) {
	small(t)
	for _, w := range []string{"fleet-solo", "fleet-sharded"} {
		s, err := fleetScenario(w, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		if _, err := fleetDriverRun(s, t.TempDir(), tr); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		checkSpanTree(t, w, tr)
	}
	tr := newTracer()
	sweepDriver(3, 2, tr)
	checkSpanTree(t, "paper-sweep", tr)
}

// Each workload's digest of its simulated output repeats across runs
// and across parallelism 1 and 2.
func TestDigestsRepeat(t *testing.T) {
	small(t)
	for _, w := range []string{"fleet-solo", "fleet-sharded"} {
		var digests []string
		for _, par := range []int{1, 2, 1, 2} {
			s, err := fleetScenario(w, 3, par)
			if err != nil {
				t.Fatal(err)
			}
			v, _, err := runChaos(s, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			d, err := verdictDigest(v)
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, d)
		}
		for _, d := range digests[1:] {
			if d != digests[0] {
				t.Errorf("%s: digests differ across runs and parallelism: %v", w, digests)
			}
		}
	}
	var digests []string
	for _, par := range []int{1, 2, 1, 2} {
		var parts []string
		for _, app := range sweepApps() {
			it, err := sweepAppIteration(app, 3, par)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, it.digest)
		}
		digests = append(digests, combineDigests(parts))
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			t.Errorf("paper-sweep: digests differ across runs and parallelism: %v", digests)
		}
	}
}

// The golden-shape checker accepts the paper's shape and flags each
// way of breaking it.
func TestGoldenFailuresBite(t *testing.T) {
	good := func() []goldenRow {
		rows := []goldenRow{{cap: 0, time: 1, energy: 1, freq: 2700, committed: 100}}
		times := []float64{1.01, 1.02, 1.05, 1.1, 1.3, 1.6, 2, 6, 20}
		freqs := []float64{2700, 2650, 2500, 2300, 2000, 1600, 1210, 1200, 1200}
		for i, c := range []float64{160, 155, 150, 145, 140, 135, 130, 125, 120} {
			rows = append(rows, goldenRow{cap: c, time: times[i], energy: times[i], freq: freqs[i], committed: 100})
		}
		return rows
	}
	if f := goldenFailures(good()); len(f) != 0 {
		t.Fatalf("paper shape rejected: %v", f)
	}
	for name, doctor := range map[string]func([]goldenRow){
		"faster at a tighter cap": func(r []goldenRow) { r[5].time = 1.0 },
		"energy drops":            func(r []goldenRow) { r[6].energy = 1.0 },
		"flat cliff":              func(r []goldenRow) { r[9].time = 3 },
		"heavy 145 W slowdown":    func(r []goldenRow) { r[4].time = 1.5; r[3].time = 1.45 },
		"unpinned 125 W":          func(r []goldenRow) { r[8].freq = 2400 },
		"slow baseline core":      func(r []goldenRow) { r[0].freq = 1500 },
		"different work":          func(r []goldenRow) { r[2].committed = 99 },
	} {
		rows := good()
		doctor(rows)
		if len(goldenFailures(rows)) == 0 {
			t.Errorf("%s: not flagged", name)
		}
	}
}
