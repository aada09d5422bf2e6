package main

// endToEnd and perLayer list every metric the benchmark reports, with its
// unit, in report order: the timed pass prints every end-to-end metric on
// every workload, the traced pass every per-layer one. Units starting
// with "sim_" are simulated time; "s", "ns" and "%" are host time.
// METRICS.md defines each metric and names the layer it belongs to.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_reqs_per_host_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"allocs_per_op", "count"},
	{"sim_p50_us", "sim_us"},
	{"sim_p99_us", "sim_us"},
	{"sim_sat_rps", "1/sim_s"},
	{"sim_time_ms", "sim_ms"},
}

var perLayer = []struct{ name, unit string }{
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.host_share", "fraction"},
	{"sim.proc_parks_per_op", "count"},
	{"par.speedup_2", "ratio"},
	{"par.blocked_per_busy", "ratio"},
	{"par.windows_per_crossing", "ratio"},
	{"setup.machine_s", "s"},
	{"machine.agent_items_per_op", "count"},
	{"machine.host_share", "fraction"},
	{"machine.agent_wait_us", "sim_us"},
	{"machine.proxy_util_max", "fraction"},
	{"proxy.scans_per_op", "count"},
	{"proxy.probes_per_scan", "count"},
	{"proxy.host_share", "fraction"},
	{"setup.topo_s", "s"},
	{"topo.host_share", "fraction"},
	{"topo.mean_hops", "count"},
	{"topo.tier_util_max", "fraction"},
	{"setup.comm_s", "s"},
	{"comm.ops_per_op", "count"},
	{"comm.bytes_per_op", "B"},
	{"comm.host_share", "fraction"},
	{"comm.oneway_us", "sim_us"},
	{"comm.intra_share", "fraction"},
	{"setup.am_s", "s"},
	{"am.host_share", "fraction"},
	{"setup.kv_s", "s"},
	{"kv.replicated_per_put", "count"},
	{"kv.host_share", "fraction"},
	{"openloop.host_share", "fraction"},
	{"flight.backlog_share", "fraction"},
	{"flight.req_wire_share", "fraction"},
	{"flight.primary_share", "fraction"},
	{"flight.replica_wait_share", "fraction"},
	{"flight.reply_wire_share", "fraction"},
	{"setup.env_s", "s"},
	{"crl.host_share", "fraction"},
	{"splitc.host_share", "fraction"},
	{"coll.host_share", "fraction"},
	{"costmodel.host_share", "fraction"},
	{"gc.cpu_share", "fraction"},
	{"alloc.bytes_per_op", "B"},
	{"ladder.engine_event_ns", "ns"},
	{"ladder.engine_event_allocs", "count"},
	{"ladder.agent_work_ns", "ns"},
	{"ladder.agent_work_allocs", "count"},
	{"ladder.comm_put_rt_ns", "ns"},
	{"ladder.comm_put_rt_allocs", "count"},
	{"ladder.am_rt_ns", "ns"},
	{"ladder.am_rt_allocs", "count"},
	{"ladder.kv_get_ns", "ns"},
	{"ladder.kv_get_allocs", "count"},
	{"ladder.kv_put_ns", "ns"},
	{"ladder.kv_put_allocs", "count"},
	{"trace.overhead_pct", "%"},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, l := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, e := range l {
			m[e.name] = e.unit
		}
	}
	return m
}()
