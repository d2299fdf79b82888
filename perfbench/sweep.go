package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"nodecap/internal/core"
	"nodecap/internal/machine"
	"nodecap/internal/pool"
	"nodecap/internal/workloads/sar"
	"nodecap/internal/workloads/stereo"
)

// The paper-sweep workload is the paper's own experiment: SIRE/RSM and
// Stereo Matching under every PaperCaps() cap plus the baseline, one
// trial each, with the inputs `powercap-bench -fast` uses. SIRE
// streams over a working set larger than L3; Stereo's fits in L3 and
// is accessed at random.

type sweepApp struct {
	name        string
	newWorkload func() machine.Workload
}

// sweepInputs returns the two applications' inputs; tests swap in
// smaller ones.
var sweepInputs = fastInputs

// fastInputs are the inputs of `powercap-bench -fast`.
func fastInputs() (sar.Config, stereo.Config) {
	sarCfg := sar.DefaultConfig()
	sarCfg.RSMIterations = 2
	sarCfg.ImageSize = 64
	stereoCfg := stereo.DefaultConfig()
	stereoCfg.Sweeps = 1
	return sarCfg, stereoCfg
}

func sweepApps() []sweepApp {
	sarCfg, stereoCfg := sweepInputs()
	return []sweepApp{
		{"SIRE/RSM", func() machine.Workload { return sar.New(sarCfg) }},
		{"Stereo Matching", func() machine.Workload { return stereo.New(stereoCfg) }},
	}
}

// machineConfig offsets every grid run's machine seed by the
// benchmark seed, so each seed is a different set of trial phases.
func machineConfig(benchSeed int64) func(uint64) machine.Config {
	return func(seed uint64) machine.Config {
		cfg := machine.Romley()
		cfg.Seed = seed + uint64(benchSeed)*1_000_000
		return cfg
	}
}

// gridSeed is the machine seed core.Experiment gives grid row `row`
// (0 = baseline) in its only trial.
func gridSeed(row int) uint64 { return uint64(row+1) * 1000 }

// gridCaps is the cap of every grid row; 0 is the uncapped baseline.
func gridCaps() []float64 { return append([]float64{0}, core.PaperCaps()...) }

// sweepOut is one untraced iteration of one application's sweep.
type sweepOut struct {
	digest    string
	nodeTicks float64 // simulated BMC control periods across the grid
	points    int
	failed    []string
}

// sweepAppIteration runs core.Experiment for one application and
// checks the paper's golden shape on its rows.
func sweepAppIteration(app sweepApp, seed int64, par int) (sweepOut, error) {
	var out sweepOut
	res, err := core.Experiment{
		NewWorkload:   app.newWorkload,
		MachineConfig: machineConfig(seed),
		Caps:          core.PaperCaps(),
		Trials:        1,
		Parallelism:   par,
	}.Run()
	if err != nil {
		return out, fmt.Errorf("%s: %w", app.name, err)
	}
	period := float64(machine.Romley().BMC.ControlPeriod)
	var rows []goldenRow
	for _, r := range res.All() {
		rows = append(rows, goldenRow{
			cap: r.CapWatts, time: r.TimeSeconds, energy: r.EnergyJoules,
			freq: r.FreqMHz, committed: r.Counters.Committed,
		})
		out.nodeTicks += float64(r.Time) / period
	}
	out.points = len(rows)
	out.failed = goldenFailures(rows)
	b, err := json.Marshal(res)
	if err != nil {
		return out, err
	}
	out.digest = digestOf(b)
	return out, nil
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// combineDigests folds the parts' digests into the workload's.
func combineDigests(ds []string) string {
	if len(ds) == 1 {
		return ds[0]
	}
	return digestOf([]byte(strings.Join(ds, "\n")))
}

// sweepSetup times what the sweep builds before each grid run starts:
// the application input (the workload constructor) and the simulated
// node (machine.New), for every grid point of both applications.
func sweepSetup(seed int64) time.Duration {
	cfg := machineConfig(seed)
	start := time.Now()
	for _, app := range sweepApps() {
		for row := range gridCaps() {
			app.newWorkload()
			machine.New(cfg(gridSeed(row)))
		}
	}
	return time.Since(start)
}

// goldenRow is one grid row's extracted metrics; rows[0] is the
// baseline, then PaperCaps order (160 W down to 120 W).
type goldenRow struct {
	cap, time, energy, freq, committed float64
}

// Golden-shape bands, the same as internal/core/paper_golden_test.go.
const (
	monotoneSlack   = 0.995
	lowCapMinRatio  = 10.0
	highCapMaxRatio = 1.4
	pinnedCapWatts  = 130
	pinnedFreqLo    = 1150
	pinnedFreqHi    = 1260
	baselineFreqMin = 2000
)

// goldenFailures returns one message per grid row that breaks the
// paper's shape: time and energy monotone as the cap drops, a ≥10×
// slowdown at the tightest cap, ≤1.4× at caps ≥140 W, frequency
// pinned near 1.2 GHz at ≤130 W, and identical committed work at
// every cap.
func goldenFailures(rows []goldenRow) []string {
	base := rows[0]
	var out []string
	last := len(rows) - 1
	for i, r := range rows {
		var why []string
		if i == 0 {
			if r.freq < baselineFreqMin {
				why = append(why, fmt.Sprintf("baseline frequency %.0f MHz below %d", r.freq, baselineFreqMin))
			}
		} else {
			if i > 1 && r.time < rows[i-1].time*monotoneSlack {
				why = append(why, fmt.Sprintf("time %.4g below %.4g at the looser cap", r.time, rows[i-1].time))
			}
			if i > 1 && r.energy < rows[i-1].energy*monotoneSlack {
				why = append(why, fmt.Sprintf("energy %.4g below %.4g at the looser cap", r.energy, rows[i-1].energy))
			}
			ratio := r.time / base.time
			if i == last && ratio < lowCapMinRatio {
				why = append(why, fmt.Sprintf("slowdown ×%.2f below ×%.0f", ratio, lowCapMinRatio))
			}
			if r.cap >= 140 && ratio > highCapMaxRatio {
				why = append(why, fmt.Sprintf("slowdown ×%.2f above ×%.1f", ratio, highCapMaxRatio))
			}
			if r.cap <= pinnedCapWatts && (r.freq < pinnedFreqLo || r.freq > pinnedFreqHi) {
				why = append(why, fmt.Sprintf("frequency %.0f MHz outside [%d, %d]", r.freq, pinnedFreqLo, pinnedFreqHi))
			}
			if r.committed != base.committed {
				why = append(why, fmt.Sprintf("committed %.0f instructions, baseline %.0f", r.committed, base.committed))
			}
		}
		if len(why) > 0 {
			label := "baseline"
			if i > 0 {
				label = fmt.Sprintf("%.0f W", r.cap)
			}
			out = append(out, fmt.Sprintf("%s: %v", label, why))
		}
	}
	return out
}

// sweepRun is what the driver keeps of one grid run.
type sweepRun struct {
	res machine.RunResult
	ns  int64 // host time in RunWorkload
}

// sweepDriver repeats core.Experiment's grid loop from the public
// calls of each layer, with a span around every call when tr is
// non-nil. runs is indexed [app][row].
func sweepDriver(seed int64, par int, tr *tracer) (runs [][]sweepRun, workers int) {
	cfg := machineConfig(seed)
	caps := gridCaps()
	workers = min(pool.Workers(par), len(caps))
	root := tr.start(-1, "driver", 0)
	for a, app := range sweepApps() {
		exp := tr.start(root, "core.experiment", int64(a))
		out := make([]sweepRun, len(caps))
		pool.ForEach(len(caps), par, func(row int) {
			req := int64(a*100 + row)
			job := tr.start(exp, "pool.job", req)
			sp := tr.start(job, "workloads.new", req)
			w := app.newWorkload()
			tr.finish(sp)
			sp = tr.start(job, "machine.new", req)
			m := machine.New(cfg(gridSeed(row)))
			tr.finish(sp)
			sp = tr.start(job, "bmc.set_policy", req)
			_ = m.SetPolicy(caps[row]) // as core.Experiment; the golden checks catch a cap that did not apply
			tr.finish(sp)
			sp = tr.start(job, "machine.run_workload", req)
			t0 := time.Now()
			res := m.RunWorkload(w)
			out[row] = sweepRun{res: res, ns: int64(time.Since(t0))}
			tr.finish(sp)
			tr.finish(job)
		})
		tr.finish(exp)
		runs = append(runs, out)
	}
	tr.finish(root)
	return runs, workers
}

// driverRows converts one application's driver runs to golden rows.
func driverRows(runs []sweepRun) []goldenRow {
	rows := make([]goldenRow, len(runs))
	for i, r := range runs {
		rows[i] = goldenRow{
			cap: r.res.CapWatts, time: r.res.ExecTime.Seconds(), energy: r.res.EnergyJoules,
			freq: r.res.AvgFreqMHz, committed: float64(r.res.Counters.InstructionsCommitted),
		}
	}
	return rows
}
