package main

import (
	"fmt"

	"repro/internal/heap"
)

// metricDef names one reported metric. The tables below are the single
// source of the names in BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; what "latency" and "latency2" time depends
// on the workload (see README.md), and their tails are per-layer:
//
//	serve:   request Send→reply, and the evaluation-bound fib and list requests
//	churn:   connect (Register→init reply), and reclaim (Disconnect→reclaimed)
//	gc-heap: minor-collection Checkpoint, and major-collection Checkpoint
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency2_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// evalKinds are the serve request kinds whose evaluation is also timed
// on a standalone machine.
var evalKinds = []string{"fib", "list", "vector"}

// selfSpans are the span names whose mean self time is reported. The
// leaf spans (public calls, collector phases) are left out: their self
// time is their duration, already reported under its own name.
var selfSpans = []string{"request", "lifecycle", "connect", "reclaim", "checkpoint"}

// perLayer are the traced run's metrics. Every workload reports every
// one; a layer a workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		// The tails of the two end-to-end latencies, measured in the
		// traced run's untraced quarters. They are per-layer because
		// churn's did not repeat within a tenth from run to run on a
		// 2-CPU host.
		{"latency_tail_ms", "ms", "lower"},
		{"latency2_tail_ms", "ms", "lower"},
		{"server.send_us", "us", "lower"},
		{"server.register_us", "us", "lower"},
		{"server.disconnect_us", "us", "lower"},
		{"server.template_boot_ratio", "ratio", "higher"},
	}
	for _, k := range evalKinds {
		d = append(d, metricDef{"server.wait_ms." + k, "ms", "lower"})
	}
	d = append(d,
		metricDef{"server.idle_collects_per_kreq", "1/kreq", "lower"},
		metricDef{"server.drain_collects_per_session", "1/session", "lower"},
		metricDef{"server.reclaim_record_ms", "ms", "lower"},
		metricDef{"server.undeliverable_ratio", "ratio", "lower"},
	)
	for _, k := range evalKinds {
		d = append(d, metricDef{"scheme.eval_us." + k, "us", "lower"})
	}
	for _, k := range evalKinds {
		d = append(d, metricDef{"scheme.vm_us." + k, "us", "lower"})
	}
	for _, p := range heap.PhaseNames() {
		d = append(d, metricDef{"heap.phase_ms." + p, "ms", "lower"})
	}
	d = append(d,
		metricDef{"heap.pause_ms_per_s", "ms/s", "lower"},
		metricDef{"heap.collections_per_kop", "1/kop", "lower"},
		metricDef{"heap.workers_chosen_mean", "count", "lower"},
		metricDef{"heap.sweep_idle_share", "ratio", "lower"},
		metricDef{"heap.survival_ratio", "ratio", "lower"},
		metricDef{"heap.dirty_cells_per_minor", "count", "lower"},
		metricDef{"heap.barrier_hits_per_op", "count", "lower"},
		metricDef{"heap.words_allocated_per_op", "words", "lower"},
		metricDef{"heap.guardian_rounds_p50", "count", "lower"},
		metricDef{"heap.guardian_scanned_per_salvaged", "ratio", "lower"},
		metricDef{"heap.weak_broken_per_collection", "count", "lower"},
		metricDef{"heap.cow_copies_per_session", "count", "lower"},
		metricDef{"heap.segments_peak", "count", "lower"},
		metricDef{"heap.final_objects", "count", "lower"},
		metricDef{"seg.segments_freed_per_collection", "count", "higher"},
		metricDef{"core.guardian_get_us", "us", "lower"},
		metricDef{"core.table_access_us", "us", "lower"},
		metricDef{"core.salvaged_per_dropped", "ratio", "higher"},
		metricDef{"ports.reclaimed_per_session", "count", "higher"},
		metricDef{"extres.reclaimed_per_session", "count", "higher"},
		metricDef{"trace.overhead_throughput", "ratio", "lower"},
		metricDef{"trace.overhead_latency_p50", "ratio", "lower"},
	)
	for _, s := range selfSpans {
		d = append(d, metricDef{"self_us." + s, "us", "lower"})
	}
	return d
}

// addLatencies reports a workload's two timed operations: their medians
// in an untraced run, their tails in a traced one.
func addLatencies(v values, first, second timing, traced bool) {
	if traced {
		v["latency_tail_ms"], v["latency2_tail_ms"] = first.Tail, second.Tail
		return
	}
	v["latency_p50_ms"], v["latency2_p50_ms"] = first.P50, second.P50
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects a run's measurements by metric name.
type values map[string]float64

// render returns exactly the metrics of defs, in the result line's
// shape. A name the workload did not measure reads 0; a name that is
// not in defs is a programming error.
func (v values) render(defs []metricDef) (map[string]metricValue, error) {
	known := make(map[string]bool, len(defs))
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		out[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	for name := range v {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not declared", name)
		}
	}
	return out, nil
}
