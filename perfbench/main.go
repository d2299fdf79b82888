// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time and prints, as the last line of standard
// output, one JSON object with the keys correct, attempted, failed and
// metrics.
//
//	perfbench --workload paper-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics untraced, through
// the program's own entry points: core.Experiment.Run for paper-sweep,
// chaos.Build + chaos.Run for fleet-solo and fleet-sharded. With
// --trace 1 it runs the benchmark's own driver, which repeats the
// workload's loop from each layer's public calls, once untraced and
// once with a span around every call, and prints the per-layer
// metrics; the spans are written to --trace-dir.
//
// Build and run it through run.py, which keeps every build and run
// artefact under .bench_build/ in the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report accumulates a run's outcome. correct stays true only while
// every iteration completes, passes its output checks, and repeats the
// first iteration's digest.
type report struct {
	result
	vals map[string]float64
}

func newReport() *report {
	return &report{result: result{Correct: true}, vals: map[string]float64{}}
}

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// offShape counts a grid row outside the paper's golden shape. It is a
// failed operation, not an incorrect output: the bands measure how far
// the simulated node is from the paper's hardware, not a fault.
func (r *report) offShape(msg string) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: paper shape: %s\n", msg)
}

// finish keeps exactly the metrics in ms, in their units.
func (r *report) finish(ms []metric) result {
	r.Metrics = map[string]value{}
	for _, m := range ms {
		r.Metrics[m.name] = value{Value: r.vals[m.name], Unit: m.unit}
	}
	return r.result
}

// parallelism is every workload's worker count: the sweep's pool and
// the fleet engine's tick shards. One, not two: on a 2-vCPU host shared
// with other tenants, two workers made one application's sweep time
// range over 64% of its value within four minutes against 16-27% for
// one worker, because each worker then contends on both vCPUs and the
// slowest one sets the pace.
const parallelism = 1

type options struct {
	workload  string
	seed      int64
	seconds   float64
	par       int
	stateRoot string
	traceDir  string
}

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-sweep, fleet-solo or fleet-sharded")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long to repeat the measured iterations")
	flag.IntVar(&traced, "trace", 0, "1 runs the traced driver and prints per-layer metrics")
	flag.StringVar(&o.stateRoot, "state-dir", filepath.Join(".bench_build", "state"), "scratch directory for journals")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	flag.Parse()
	o.par = parallelism

	if !slices.Contains(workloadNames, o.workload) || (traced != 0 && traced != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.stateRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var res result
	var err error
	if traced == 1 {
		res, err = runTraced(o)
	} else {
		res, err = runEndToEnd(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// part is one repeated unit of a workload: a whole chaos run, or one
// application's cap sweep. Parts run round-robin, so each median covers
// the same stretch of the run.
type part struct {
	name    string
	iterate func() (digest string, wall time.Duration, err error)
	digest  string
	walls   []float64
	heaps   []float64
}

// runEndToEnd measures the set-up several times, then repeats the
// workload's parts for o.seconds. wall_s is the sum of the parts'
// median walls, peak_heap_mb the largest part's median heap peak.
func runEndToEnd(o options) (result, error) {
	r := newReport()
	var setups []float64
	var nodeTicks float64
	var appTicks []float64 // paper-sweep: each application's share of nodeTicks
	var setup func() (time.Duration, error)
	var parts []*part

	if o.workload == "paper-sweep" {
		setup = func() (time.Duration, error) { return sweepSetup(o.seed), nil }
		appTicks = make([]float64, len(sweepApps()))
		for i, app := range sweepApps() {
			parts = append(parts, &part{name: app.name, iterate: func() (string, time.Duration, error) {
				start := time.Now()
				it, err := sweepAppIteration(app, o.seed, o.par)
				wall := time.Since(start)
				if err != nil {
					return "", 0, err
				}
				appTicks[i] = it.nodeTicks
				r.Attempted += int64(it.points)
				for _, msg := range it.failed {
					r.offShape(app.name + ": " + msg)
				}
				return it.digest, wall, nil
			}})
		}
	} else {
		s, err := fleetScenario(o.workload, o.seed, o.par)
		if err != nil {
			return result{}, err
		}
		nodeTicks = float64(s.Nodes) * float64(s.Ticks)
		setup = func() (time.Duration, error) {
			v, wall, err := runChaos(setupScenario(s), o.stateRoot)
			if err == nil && !v.Pass {
				r.fail("set-up verdict did not pass: %d violations", v.ViolationCount)
			}
			return wall, err
		}
		parts = append(parts, &part{name: s.Name, iterate: func() (string, time.Duration, error) {
			v, wall, err := runChaos(s, o.stateRoot)
			if err != nil {
				return "", 0, err
			}
			r.Attempted += verdictChecks(v)
			r.Failed += int64(v.ViolationCount)
			if !v.Pass || v.ViolationCount != 0 {
				r.fail("%s verdict did not pass: %d violations", s.Name, v.ViolationCount)
			}
			d, err := verdictDigest(v)
			return d, wall, err
		}})
	}

	start := time.Now()
	for len(setups) < 3 || (len(setups) < 25 && time.Since(start).Seconds() < o.seconds/6) {
		runtime.GC()
		d, err := setup()
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	start = time.Now()
	for i := 0; i < len(parts) || time.Since(start).Seconds() < o.seconds; i++ {
		p := parts[i%len(parts)]
		runtime.GC()
		h := sampleHeap()
		d, wall, err := p.iterate()
		heap := h.finish()
		if err != nil {
			return result{}, fmt.Errorf("%s iteration %d: %w", p.name, len(p.walls), err)
		}
		if p.digest == "" {
			p.digest = d
		} else if d != p.digest {
			r.fail("%s digest changed between iterations of one seed: %s then %s", p.name, p.digest, d)
		}
		p.walls = append(p.walls, wall.Seconds())
		p.heaps = append(p.heaps, heap)
	}

	var wall, heap float64
	var digests []string
	for _, p := range parts {
		wall += median(p.walls)
		heap = max(heap, median(p.heaps))
		digests = append(digests, p.digest)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d %s: walls %.4g s, heap peaks %.4g MB\n", o.workload, o.seed, p.name, p.walls, p.heaps)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d: set-ups %.4g s\n", o.workload, o.seed, setups)
	fmt.Printf("digest %s seed=%d sha256=%s\n", o.workload, o.seed, combineDigests(digests))
	for _, t := range appTicks {
		nodeTicks += t
	}
	setupS := median(setups)
	r.vals["wall_s"] = wall
	r.vals["setup_s"] = setupS
	if appTicks != nil {
		// The sweep builds each grid point inside its grid loop, so
		// its rate is over the whole run.
		r.vals["node_ticks_per_s"] = nodeTicks / wall
	} else {
		r.vals["node_ticks_per_s"] = nodeTicks / (wall - setupS)
	}
	r.vals["peak_heap_mb"] = heap
	return r.finish(e2eMetrics), nil
}

// runTraced runs the workload's driver untraced and traced and
// derives the per-layer metrics from the traced run's spans.
func runTraced(o options) (result, error) {
	r := newReport()
	var tr *tracer
	var err error
	if o.workload == "paper-sweep" {
		tr, err = sweepLayers(o, r)
	} else {
		tr, err = fleetLayers(o, r)
	}
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.tsv.gz", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	tr.summary(os.Stderr)
	r.vals["unattributed_frac"] = tr.unattributed()
	return r.finish(layerMetrics), nil
}

func sweepLayers(o options, r *report) (*tracer, error) {
	start := time.Now()
	plain, _ := sweepDriver(o.seed, o.par, nil)
	plainWall := time.Since(start)
	tr := newTracer()
	start = time.Now()
	runs, workers := sweepDriver(o.seed, o.par, tr)
	tracedWall := time.Since(start)

	if !reflect.DeepEqual(stripHostTime(plain), stripHostTime(runs)) {
		r.fail("traced and untraced sweeps simulated different results")
	}
	var runNS, ops, baseNS, lowNS float64
	last := len(gridCaps()) - 1
	for a, appRuns := range runs {
		r.Attempted += int64(len(appRuns))
		for _, msg := range goldenFailures(driverRows(appRuns)) {
			r.offShape(sweepApps()[a].name + ": " + msg)
		}
		baseNS += float64(appRuns[0].ns)
		lowNS += float64(appRuns[last].ns)
		for _, run := range appRuns {
			c := run.res.Counters
			runNS += float64(run.ns)
			ops += float64(c.Loads + c.Stores)
			r.vals["machine.instructions"] += float64(c.InstructionsCommitted)
			r.vals["cache.l1d_misses"] += float64(c.L1DMisses)
			r.vals["cache.l2_misses"] += float64(c.L2Misses)
			r.vals["cache.l3_misses"] += float64(c.L3Misses)
			r.vals["tlb.dtlb_misses"] += float64(c.DTLBMisses)
			r.vals["tlb.itlb_misses"] += float64(c.ITLBMisses)
			r.vals["bmc.ticks"] += float64(run.res.BMCStats.Ticks)
			r.vals["bmc.gate_escalations"] += float64(run.res.BMCStats.GateEscalate)
		}
	}
	ls := tr.byName()
	apps := float64(len(runs))
	r.vals["core.run_s.baseline"] = baseNS / apps / 1e9
	r.vals["core.run_s.120"] = lowNS / apps / 1e9
	r.vals["machine.ns_per_op"] = runNS / ops
	r.vals["machine.new_ms"] = ls["machine.new"].mean() * 1e3
	r.vals["workloads.new_ms"] = ls["workloads.new"].mean() * 1e3
	r.vals["pool.busy_frac"] = ls["pool.job"].total() / (ls["core.experiment"].total() * float64(workers))
	r.vals["sim_minstr_per_s"] = r.vals["machine.instructions"] / 1e6 / plainWall.Seconds()
	r.vals["trace_overhead_frac"] = tracedWall.Seconds()/plainWall.Seconds() - 1
	return tr, nil
}

// stripHostTime drops the host timings from driver runs so two runs
// compare on their simulated results alone.
func stripHostTime(runs [][]sweepRun) [][]sweepRun {
	out := make([][]sweepRun, len(runs))
	for a, appRuns := range runs {
		out[a] = make([]sweepRun, len(appRuns))
		for i, run := range appRuns {
			out[a][i] = sweepRun{res: run.res}
		}
	}
	return out
}

func fleetLayers(o options, r *report) (*tracer, error) {
	s, err := fleetScenario(o.workload, o.seed, o.par)
	if err != nil {
		return nil, err
	}
	_, setupWall, err := runChaos(setupScenario(s), o.stateRoot)
	if err != nil {
		return nil, fmt.Errorf("chaos set-up: %w", err)
	}
	v, chaosWall, err := runChaos(s, o.stateRoot)
	if err != nil {
		return nil, fmt.Errorf("chaos run: %w", err)
	}
	r.Attempted = verdictChecks(v)
	r.Failed = int64(v.ViolationCount)
	if !v.Pass || v.ViolationCount != 0 {
		r.fail("%s verdict did not pass: %d violations", s.Name, v.ViolationCount)
	}

	driver := func(tr *tracer) (driverOut, time.Duration, error) {
		dir, err := os.MkdirTemp(o.stateRoot, "driver-")
		if err != nil {
			return driverOut{}, 0, err
		}
		defer os.RemoveAll(dir)
		start := time.Now()
		out, err := fleetDriverRun(s, dir, tr)
		return out, time.Since(start), err
	}
	plain, plainWall, err := driver(nil)
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	tr := newTracer()
	out, tracedWall, err := driver(tr)
	if err != nil {
		return nil, fmt.Errorf("traced driver: %w", err)
	}
	// The driver must replay what chaos.Run simulated.
	for _, d := range []driverOut{plain, out} {
		if d.handoffs != v.Handoffs || d.stats.FailSafeEntries != v.FailSafeEntries || d.stats.SensorFaults != v.SensorFaults {
			r.fail("driver replay diverged from chaos.Run: handoffs %d/%d, fail-safe entries %d/%d, sensor faults %d/%d",
				d.handoffs, v.Handoffs, d.stats.FailSafeEntries, v.FailSafeEntries, d.stats.SensorFaults, v.SensorFaults)
		}
	}
	var skipped float64
	for kind, n := range out.skipped {
		fmt.Fprintf(os.Stderr, "perfbench: driver skipped %d %q events (no public call)\n", n, kind)
		skipped += float64(n)
	}

	ls := tr.byName()
	c := out.counters
	pushes, pushFails := float64(c["dcm_cap_pushes_total"]), float64(c["dcm_cap_push_failures_total"])
	appends, compactions := float64(c["store_journal_appends_total"]), float64(c["store_compactions_total"])
	vals := map[string]float64{
		"fleet.tick_ns_per_node":        ls["fleet.tick"].total() * 1e9 / (float64(s.Nodes) * float64(s.Ticks)),
		"dcm.add_node_us.p50":           ls["dcm.add_node"].quantile(0.50) * 1e6,
		"dcm.add_node_us.p99":           ls["dcm.add_node"].quantile(0.99) * 1e6,
		"dcm.add_node_s":                ls["dcm.add_node"].total(),
		"dcm.nodes_ms":                  ls["dcm.nodes"].mean() * 1e3,
		"dcm.poll_ms.p50":               ls["dcm.poll"].quantile(0.50) * 1e3,
		"dcm.poll_ms.p99":               ls["dcm.poll"].quantile(0.99) * 1e3,
		"dcm.apply_budget_ms.p50":       ls["dcm.apply_budget"].quantile(0.50) * 1e3,
		"dcm.apply_budget_ms.p99":       ls["dcm.apply_budget"].quantile(0.99) * 1e3,
		"dcm.desired_cap_sum_us":        ls["dcm.desired_cap_sum"].mean() * 1e6,
		"dcm.push_fail_frac":            ratio(pushFails, pushes+pushFails),
		"store.appends":                 appends,
		"store.compactions":             compactions,
		"store.compactions_per_kappend": ratio(compactions*1000, appends),
		"store.compact_ms":              median(out.compactNS) / 1e6,
		"ipmi.handle_ns":                ls["ipmi.handle"].mean() * 1e9,
		"ipmi.exchanges":                float64(ls["ipmi.handle"].count()),
		"shard.add_nodes_s":             ls["shard.add_nodes"].total(),
		"shard.rebalance_ms.p50":        ls["shard.rebalance"].quantile(0.50) * 1e3,
		"shard.rebalance_ms.p99":        ls["shard.rebalance"].quantile(0.99) * 1e3,
		"shard.seize_ms.p50":            ls["shard.seize"].quantile(0.50) * 1e3,
		"shard.seize_ms.p99":            ls["shard.seize"].quantile(0.99) * 1e3,
		"shard.rejoin_ms.p50":           ls["shard.rejoin"].quantile(0.50) * 1e3,
		"shard.rejoin_ms.p99":           ls["shard.rejoin"].quantile(0.99) * 1e3,
		"shard.handoffs":                float64(out.handoffs),
		"telemetry.trace_events":        float64(out.traceEvents),
		"chaos.events_skipped":          skipped,
		"chaos.residual_frac":           1 - plain.run.Seconds()/(chaosWall-setupWall).Seconds(),
		"trace_overhead_frac":           tracedWall.Seconds()/plainWall.Seconds() - 1,
	}
	for k, x := range vals {
		r.vals[k] = x
	}
	return tr, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapSampler tracks the peak Go heap (objects live or not yet swept)
// while one iteration runs.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
