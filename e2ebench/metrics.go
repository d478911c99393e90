package main

import "fmt"

// metricDef is one reported metric. BENCHMARK.json lists the same names
// and units (a self-test keeps the two in step).
type metricDef struct {
	name, unit string
	better     string // end-to-end metrics only: "higher" or "lower"
}

// endToEnd are the untraced run's metrics, the same on every workload.
var endToEnd = []metricDef{
	{"cpu_us_per_pkt", "us", "lower"},
	{"ack_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"recover_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, named layer.metric after the
// module the benchmark's spans wrap. The e2e ones are whole-stack figures
// whose run-to-run spread on the defining host (IQR about 30% of the
// median) is too wide to bound, so they are reported without one.
var perLayer = []metricDef{
	{name: "e2e.sustained_pkts_per_s", unit: "pkt/s"},
	{name: "e2e.row_lag_p50_ms", unit: "ms"},
	{name: "ingest.decode_ns_per_pkt", unit: "ns"},
	{name: "ingest.listener_self_us_per_pkt", unit: "us"},
	{name: "gsql.push_us_per_pkt", unit: "us"},
	{name: "gsql.push_sharded_us_per_pkt", unit: "us"},
	{name: "gsql.shard_mismatch_cells", unit: "count"},
	{name: "gsql.member_share", unit: "ratio"},
	{name: "gsql.classes", unit: "count"},
	{name: "gsql.shared_hit_ratio", unit: "ratio"},
	{name: "gsql.distinct_exprs", unit: "count"},
	{name: "gsql.rows_out_per_kpkt", unit: "rows/kpkt"},
	{name: "gsql.ckpt_ms", unit: "ms"},
	{name: "gsql.ckpt_bytes", unit: "B"},
	{name: "gsql.attach_us", unit: "us"},
	{name: "server.checkpoints_per_mpkt", unit: "1/Mpkt"},
	{name: "server.rows_emitted", unit: "count"},
	{name: "server.rows_delivered", unit: "count"},
	{name: "server.rows_shed", unit: "count"},
	{name: "server.gaps_reported", unit: "count"},
	{name: "server.restarts", unit: "count"},
	{name: "server.wedges", unit: "count"},
	{name: "server.attach_ms", unit: "ms"},
	{name: "server.resume_gap_rows", unit: "count"},
	{name: "server.residual_us_per_pkt", unit: "us"},
	{name: "server.residual_share", unit: "ratio"},
	{name: "tail.ack_p99_ms", unit: "ms"},
	{name: "tail.ack_p999_ms", unit: "ms"},
	{name: "tail.ack_samples", unit: "count"},
	{name: "tail.row_lag_p99_ms", unit: "ms"},
	{name: "tail.row_lag_samples", unit: "count"},
	{name: "driver.late_p99_ms", unit: "ms"},
	{name: "driver.cpu_us_per_pkt", unit: "us"},
}

// metricSet collects one run's values, each under its declared unit.
type metricSet struct {
	defs []metricDef
	m    map[string]metric
}

func newMetricSet(trace bool) *metricSet {
	if trace {
		return &metricSet{defs: perLayer, m: map[string]metric{}}
	}
	return &metricSet{defs: endToEnd, m: map[string]metric{}}
}

func (ms *metricSet) put(name string, v float64) {
	for _, d := range ms.defs {
		if d.name == name {
			ms.m[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("e2ebench: undeclared metric " + name)
}

// complete reports a declared metric the run did not measure.
func (ms *metricSet) complete() error {
	for _, d := range ms.defs {
		if _, ok := ms.m[d.name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	return nil
}
