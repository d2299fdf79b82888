package main

// metric is one reported figure: its name and unit as BENCHMARK.json
// lists them.
type metric struct{ name, unit string }

// e2eMetrics are measured untraced through the program's own entry
// points (chaos.Build + chaos.Run, core.Experiment.Run). Every
// workload reports every one of them.
var e2eMetrics = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"node_ticks_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

// layerMetrics come from the traced driver. A workload that never
// loads a layer reports 0 for it (paper-sweep touches no control-plane
// package; the fleet workloads run no instruction-level machine).
var layerMetrics = []metric{
	// paper-sweep
	{"core.run_s.baseline", "s"},
	{"core.run_s.120", "s"},
	{"machine.ns_per_op", "ns"},
	{"machine.new_ms", "ms"},
	{"workloads.new_ms", "ms"},
	{"pool.busy_frac", "frac"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"machine.instructions", "count"},
	{"cache.l1d_misses", "count"},
	{"cache.l2_misses", "count"},
	{"cache.l3_misses", "count"},
	{"tlb.dtlb_misses", "count"},
	{"tlb.itlb_misses", "count"},
	{"bmc.ticks", "count"},
	{"bmc.gate_escalations", "count"},
	// fleet-solo and fleet-sharded
	{"fleet.tick_ns_per_node", "ns"},
	{"dcm.add_node_us.p50", "us"},
	{"dcm.add_node_us.p99", "us"},
	{"dcm.add_node_s", "s"},
	{"dcm.nodes_ms", "ms"},
	{"dcm.poll_ms.p50", "ms"},
	{"dcm.poll_ms.p99", "ms"},
	{"dcm.apply_budget_ms.p50", "ms"},
	{"dcm.apply_budget_ms.p99", "ms"},
	{"dcm.desired_cap_sum_us", "us"},
	{"dcm.push_fail_frac", "frac"},
	{"store.appends", "count"},
	{"store.compactions", "count"},
	{"store.compactions_per_kappend", "count"},
	{"store.compact_ms", "ms"},
	{"ipmi.handle_ns", "ns"},
	{"ipmi.exchanges", "count"},
	{"shard.add_nodes_s", "s"},
	{"shard.rebalance_ms.p50", "ms"},
	{"shard.rebalance_ms.p99", "ms"},
	{"shard.seize_ms.p50", "ms"},
	{"shard.seize_ms.p99", "ms"},
	{"shard.rejoin_ms.p50", "ms"},
	{"shard.rejoin_ms.p99", "ms"},
	{"shard.handoffs", "count"},
	{"telemetry.trace_events", "count"},
	{"chaos.events_skipped", "count"},
	{"chaos.residual_frac", "frac"},
	// every workload
	{"unattributed_frac", "frac"},
	{"trace_overhead_frac", "frac"},
}

// fleetSpec sizes one chaos workload. Each run is a closed batch job:
// one scenario at a time, no arrival rate.
type fleetSpec struct {
	scenario       string
	nodes, ticks   int
	pollEvery      int
	rebalanceEvery int
}

var fleetSpecs = map[string]fleetSpec{
	// Solo DCM under sensor storms: setup is the per-node AddNode +
	// Manager.Nodes registration path, the run phase is engine ticks,
	// polls, budget pushes and journaling. No shard work, no churn.
	"fleet-solo": {scenario: "sensor-storm", nodes: 2000, ticks: 10000, pollEvery: 200, rebalanceEvery: 1000},
	// Sharded tree under rotating leaf isolation: cheap bulk setup,
	// light polling, and tens of thousands of fenced handoffs calling
	// AddNode/RemoveNode and compaction inside the same dcm/store code.
	"fleet-sharded": {scenario: "shard-handoff", nodes: 6000, ticks: 2000, pollEvery: 200, rebalanceEvery: 500},
}

// workloadNames is every workload the benchmark runs, in report order.
var workloadNames = []string{"paper-sweep", "fleet-solo", "fleet-sharded"}
