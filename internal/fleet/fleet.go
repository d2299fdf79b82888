// Package fleet is the batch simulation engine behind fleet-scale
// chaos: the state of every simulated node — analytic plant, defensive
// BMC controller, sensor-fault injection, and the per-tick observations
// the invariant checker audits — held in flat per-node slices and
// advanced by one cache-friendly pass per tick instead of one
// heap-allocated object, mutex and *rand.Rand pointer chase per node.
//
// The control law is not re-implemented here. Every node keeps a
// bmc.Loop and a bmc.Stats and is stepped by bmc.Loop.Step — the same
// defensive loop bmc.BMC runs for one node — and policy pushes go
// through bmc.Loop.Retarget, the transition bmc.BMC.SetPolicy uses.
// What this package adds is harness bookkeeping: the analytic plant
// (Watts), the seeded noise streams, fencing-epoch accounting, the
// settle window, the pre/post snapshots, and the BreakFailSafeFloor
// creep. The scalar stack the chaos harness used to build per node
// (bmc.BMC over a faults.FaultyPlant over an analytic plant) differs in
// two deliberate ways:
//
//   - Randomness is counter-based (SplitMix64 streams keyed per node)
//     instead of math/rand: one uint64 of state per node, advanced in
//     registers, no pointer-chased generator objects. Noise is drawn
//     only when the scalar layering would have drawn it (never during
//     a dropout, never for a management read).
//   - Sensor storms are modelled as a per-node dropout switch (the only
//     fault profile the chaos scenarios inject) rather than a
//     probability draw per read.
//
// TestEngineMatchesLegacyStepping drives the engine and per-node
// bmc.BMC objects through 1k random seeded scenarios and requires
// bit-identical observable state, so it guards this bookkeeping.
//
// Concurrency: Tick shards nodes across a persistent pool.Gang in
// contiguous index ranges. Nodes are mutually independent within a
// tick (management traffic lands between ticks), so shard boundaries
// cannot change any node's trajectory and the result is bit-identical
// at every parallelism. Trace events produced mid-tick (fail-safe
// transitions) are buffered per shard and merged in node order after
// the barrier, so even the observability stream replays identically at
// any worker count. The engine's mutex serializes Tick against the
// management surface (policy pushes, health reads) for wire-mode
// callers whose IPMI server goroutines run concurrently.
package fleet

import (
	"fmt"
	"math"
	"sync"

	"nodecap/internal/bmc"
	"nodecap/internal/pool"
	"nodecap/internal/telemetry"
)

// The simulated platform envelope: ~157 W busy at P0, DVFS worth 2 W
// per P-state down to 127 W, then a 4-level gating ladder worth 1.2 W
// each, for a ~122.2 W floor (the paper's nodes floor at ~123-125 W).
const (
	NumPStates     = 16
	MaxGatingLevel = 4
	P0Watts        = 157.0
	WattsPerPState = 2.0
	WattsPerGate   = 1.2
	NoiseWatts     = 0.4 // sensor noise amplitude (uniform ±)

	// FailSafePState is the fail-safe floor the fleet's BMCs hold
	// (P12 ≈ 133 W — safely under every feasible cap).
	FailSafePState = 12
)

// Watts is the analytic plant: a node's true draw at P-state ps and
// gating level gt.
func Watts(ps, gt int32) float64 {
	return P0Watts - WattsPerPState*float64(ps) - WattsPerGate*float64(gt)
}

// Config assembles an Engine.
type Config struct {
	Nodes int
	// Seed keys every node's noise stream; same (Seed, node index) —
	// same noise, forever, independent of fleet size or parallelism.
	Seed int64
	// NamePrefix labels nodes ("node-" → "node-0" …) in trace events.
	NamePrefix string
	// BreakFailSafeFloor makes the plant ignore the fail-safe clamp
	// and creep back toward full speed on untrusted sensor data — the
	// deliberate bug the no_failsafe_speedup checker must catch.
	BreakFailSafeFloor bool
	// Parallelism bounds the tick shards: <= 0 selects GOMAXPROCS, 1
	// forces the inline single-goroutine pass. Output is bit-identical
	// at every setting.
	Parallelism int
}

// Stats aggregates controller activity across the fleet.
type Stats = bmc.Stats

// shardEvt is one buffered mid-tick fail-safe transition, merged into
// the trace in node order after the tick barrier.
type shardEvt struct {
	node int32
	out  bmc.Outcome
}

// Engine holds the whole fleet's state in flat per-node slices.
type Engine struct {
	mu sync.Mutex

	law        bmc.Law
	n          int
	floor      float64
	breakFloor bool
	names      []string

	// Plant.
	pstate []int32
	gating []int32
	// Policy (what the last admitted push installed).
	capEnabled []bool
	capWatts   []float64
	// Controller: the shared defensive loop's per-node memory and
	// activity counters (shard-local writes, summed on read).
	loops []bmc.Loop
	stats []bmc.Stats
	// Sensor-fault injection: a storming node's sensor delivers
	// nothing (the only profile the chaos scenarios use).
	dropout []bool
	// Counter-based noise streams, one uint64 of state per node.
	noise []uint64

	// Per-tick observations for the invariant checker: pre/post
	// snapshots bracket the LAST tick of a batch (the chaos run loop
	// ticks one at a time, so they bracket every tick it audits).
	prePState    []int32
	postPState   []int32
	preFailSafe  []bool
	postFailSafe []bool
	// sinceCapChange counts ticks since the last material policy
	// change; overTicks and regSeen are checker-owned accumulators
	// carried here so the whole audit surface lives in one place.
	sinceCapChange   []int32
	overTicks        []int32
	actEpoch         []uint64
	epochRegressions []int32
	regSeen          []int32

	// Telemetry (nil-safe).
	trace  *telemetry.Trace
	meters bmc.Meters

	// Tick sharding.
	workers     int
	gang        *pool.Gang
	shardEvents [][]shardEvt
	batch       int
	shardFn     func(worker, lo, hi int)
}

// New builds an engine; panics on a non-positive node count (a
// misassembled harness, not a runtime condition). Every node runs the
// hardened bmc.FailSafeConfig tuning with the FailSafePState floor.
func New(cfg Config) *Engine {
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("fleet: non-positive node count %d", cfg.Nodes))
	}
	prefix := cfg.NamePrefix
	if prefix == "" {
		prefix = "node-"
	}
	tuning := bmc.FailSafeConfig()
	tuning.FailSafePState = FailSafePState
	n := cfg.Nodes
	e := &Engine{
		law:        bmc.NewLaw(tuning, NumPStates, MaxGatingLevel, false),
		n:          n,
		floor:      Watts(NumPStates-1, MaxGatingLevel),
		breakFloor: cfg.BreakFailSafeFloor,
		names:      make([]string, n),

		pstate:     make([]int32, n),
		gating:     make([]int32, n),
		capEnabled: make([]bool, n),
		capWatts:   make([]float64, n),
		loops:      make([]bmc.Loop, n),
		stats:      make([]bmc.Stats, n),
		dropout:    make([]bool, n),
		noise:      make([]uint64, n),

		prePState:        make([]int32, n),
		postPState:       make([]int32, n),
		preFailSafe:      make([]bool, n),
		postFailSafe:     make([]bool, n),
		sinceCapChange:   make([]int32, n),
		overTicks:        make([]int32, n),
		actEpoch:         make([]uint64, n),
		epochRegressions: make([]int32, n),
		regSeen:          make([]int32, n),
	}
	for i := 0; i < n; i++ {
		e.names[i] = fmt.Sprintf("%s%d", prefix, i)
		e.noise[i] = noiseStreamKey(cfg.Seed, i)
	}
	e.workers = pool.Workers(cfg.Parallelism)
	if e.workers > n {
		e.workers = n
	}
	e.shardEvents = make([][]shardEvt, e.workers)
	e.shardFn = e.runShard
	return e
}

// Close releases the tick shard workers (if any were ever started).
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gang != nil {
		e.gang.Close()
		e.gang = nil
	}
}

// Nodes reports the fleet size.
func (e *Engine) Nodes() int { return e.n }

// Name returns node i's trace label.
func (e *Engine) Name(i int) string { return e.names[i] }

// FloorWatts is the platform floor shared by every node.
func (e *Engine) FloorWatts() float64 { return e.floor }

// FailSafeFloor is the P-state every node holds in fail-safe mode.
func (e *Engine) FailSafeFloor() int { return e.law.FailSafeFloor() }

// SetTelemetry wires the fleet counters and the decision trace; either
// may be nil. Tick remains allocation-free when wired.
func (e *Engine) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Trace) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.trace = tr
	e.meters = bmc.NewMeters(reg)
}

// Tick advances every node n control periods in one batched pass.
func (e *Engine) Tick(n int) {
	if n <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.batch = n
	if e.workers <= 1 {
		e.stepRange(0, 0, e.n)
	} else {
		if e.gang == nil {
			e.gang = pool.NewGang(e.workers)
		}
		e.gang.Run(e.n, e.shardFn)
	}
	// Deterministic merge: mid-tick trace events surface in node order
	// (shard ranges are contiguous and ascending), independent of how
	// the shards interleaved.
	if e.trace != nil {
		for _, evs := range e.shardEvents {
			for _, ev := range evs {
				kind, _ := ev.out.FailSafeEvent()
				e.trace.Append(telemetry.Event{Node: e.names[ev.node], Kind: kind})
			}
		}
	}
}

func (e *Engine) runShard(worker, lo, hi int) {
	e.stepRange(worker, lo, hi)
}

// stepRange advances nodes [lo, hi) by the current batch. The tick
// loop is innermost per node, so one node's working set stays hot for
// the batch; nodes never interact within a tick, so the node-major
// order is unobservable. Per node-tick it draws the sensor noise, makes
// one call into the shared control law, buffers fail-safe transitions,
// applies the broken-floor creep and records the checker's snapshots.
func (e *Engine) stepRange(worker, lo, hi int) {
	evs := e.shardEvents[worker][:0]
	law := &e.law
	batch := e.batch
	breakFloor := e.breakFloor

	for i := lo; i < hi; i++ {
		l, st := &e.loops[i], &e.stats[i]
		ps, gt := e.pstate[i], e.gating[i]
		pol := bmc.Policy{Enabled: e.capEnabled[i], CapWatts: e.capWatts[i]}
		delivered := !e.dropout[i]
		rng := e.noise[i]
		// fs mirrors l.FailSafe(): only a Step reporting a fail-safe
		// transition changes it.
		fs := l.FailSafe()

		var pre int32
		var preFS bool

		for t := 0; t < batch; t++ {
			pre, preFS = ps, fs
			var w float64
			if pol.Enabled && delivered {
				rng += splitmixGamma
				f := float64(splitmix(rng)>>11) / (1 << 53)
				w = Watts(ps, gt) + (f*2-1)*NoiseWatts
			}
			var out bmc.Outcome
			ps, gt, out = l.Step(law, pol, w, delivered, ps, gt, st)
			if out != 0 {
				fs = l.FailSafe()
				e.meters.Count(out)
				if _, ok := out.FailSafeEvent(); ok {
					evs = append(evs, shardEvt{node: int32(i), out: out})
				}
			}
			if breakFloor && fs && ps > 0 {
				// The "broken guard": the plant ignores the fail-safe
				// clamp and creeps back toward full speed.
				ps--
			}
		}

		e.pstate[i], e.gating[i] = ps, gt
		e.noise[i] = rng
		e.prePState[i], e.postPState[i] = pre, ps
		e.preFailSafe[i], e.postFailSafe[i] = preFS, fs
		e.sinceCapChange[i] += int32(batch)
	}
	e.shardEvents[worker] = evs
}

// PushPolicy installs a capping policy on node i, mirroring the scalar
// management path end to end: fencing-epoch bookkeeping (a push
// carrying an epoch below the node's high-water mark is counted as a
// split-brain actuation), bmc.SetPolicy's transition (same-policy
// re-pushes preserve defensive state; a changed policy runs
// bmc.Loop.Retarget; disabling restores full speed), and the checker's
// settle-window reset on a material change (> 1 W or an enabled flip).
func (e *Engine) PushPolicy(i int, enabled bool, capWatts float64, epoch uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if epoch < e.actEpoch[i] {
		e.epochRegressions[i]++
	} else {
		e.actEpoch[i] = epoch
	}
	oldEn, oldCap := e.capEnabled[i], e.capWatts[i]
	if oldEn != enabled || oldCap != capWatts {
		e.capEnabled[i], e.capWatts[i] = enabled, capWatts
		out := e.loops[i].Retarget(bmc.Policy{Enabled: enabled, CapWatts: capWatts}, e.floor)
		e.meters.Count(out)
		if kind, ok := out.FailSafeEvent(); ok {
			e.trace.Append(telemetry.Event{Node: e.names[i], Kind: kind})
		}
		if !enabled {
			e.gating[i], e.pstate[i] = 0, 0
		}
	}
	if oldEn != enabled || math.Abs(oldCap-capWatts) > 1 {
		e.sinceCapChange[i] = 0
		e.overTicks[i] = 0
	}
}

// Policy reports node i's active policy.
func (e *Engine) Policy(i int) (enabled bool, capWatts float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.capEnabled[i], e.capWatts[i]
}

// SetDropout switches node i's sensor storm: while on, the sensor
// delivers nothing and the BMC must ride through on fail-safe.
func (e *Engine) SetDropout(i int, on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dropout[i] = on
}

// TrueWatts is node i's actual draw — what the invariant checker
// audits. It never consumes randomness.
func (e *Engine) TrueWatts(i int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Watts(e.pstate[i], e.gating[i])
}

// ManagementWatts is the reading served to management polls: the
// controller's smoothed estimate, or truth before the first sample —
// never a fresh sensor draw, so polling cannot perturb the seeded
// noise streams.
func (e *Engine) ManagementWatts(i int) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if w := e.loops[i].Smoothed(); w != 0 {
		return w
	}
	return Watts(e.pstate[i], e.gating[i])
}

// PState reports node i's DVFS position.
func (e *Engine) PState(i int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int(e.pstate[i])
}

// GatingLevel reports node i's gating-ladder position.
func (e *Engine) GatingLevel(i int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int(e.gating[i])
}

// NodeHealth reports node i's defensive-controller status.
func (e *Engine) NodeHealth(i int) bmc.Health {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.loops[i].Health(&e.stats[i])
}

// Stats sums the per-node activity counters into fleet totals.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var s Stats
	for i := range e.stats {
		s.Add(e.stats[i])
	}
	return s
}

// Audit exposes the SoA state an invariant checker reads (and the two
// accumulators it owns: OverTicks and RegSeen). The slices alias
// engine state — bracket every use with Lock/Unlock. Auditing this way
// costs one mutex acquisition per fleet-wide pass instead of one per
// node.
type Audit struct {
	PState           []int32
	Gating           []int32
	CapEnabled       []bool
	CapWatts         []float64
	Dropout          []bool
	PrePState        []int32
	PostPState       []int32
	PreFailSafe      []bool
	PostFailSafe     []bool
	SinceCapChange   []int32
	OverTicks        []int32
	EpochRegressions []int32
	RegSeen          []int32
}

// Audit returns the aliased audit view; see Audit's locking contract.
func (e *Engine) Audit() Audit {
	return Audit{
		PState:           e.pstate,
		Gating:           e.gating,
		CapEnabled:       e.capEnabled,
		CapWatts:         e.capWatts,
		Dropout:          e.dropout,
		PrePState:        e.prePState,
		PostPState:       e.postPState,
		PreFailSafe:      e.preFailSafe,
		PostFailSafe:     e.postFailSafe,
		SinceCapChange:   e.sinceCapChange,
		OverTicks:        e.overTicks,
		EpochRegressions: e.epochRegressions,
		RegSeen:          e.regSeen,
	}
}

// Lock serializes an audit pass (or any multi-read) against ticks and
// management pushes.
func (e *Engine) Lock() { e.mu.Lock() }

// Unlock releases Lock.
func (e *Engine) Unlock() { e.mu.Unlock() }
