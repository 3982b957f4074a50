package main

import (
	"time"

	"lotec/internal/netmodel"
	"lotec/internal/stats"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run with tracing off reports, on every
// workload.
var endToEnd = []metricDef{
	{"roots_per_s", "1/s"},
	{"root_p50_ms", "ms"},
	{"root_p99_ms", "ms"},
	{"committed_frac", "fraction"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MiB"},
	{"data_bytes_per_root", "B/root"},
	{"msgs_per_root", "msgs/root"},
	{"xfer_time_us_per_root", "us/root"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"node.acquire_ms.p50", "ms"},
	{"node.acquire_ms.p99", "ms"},
	{"node.commit_ms.p50", "ms"},
	{"node.commit_ms.p99", "ms"},
	{"node.exec_ms.p50", "ms"},
	{"node.retries_per_root", "count/root"},
	{"node.useful_frac", "fraction"},
	{"node.cpu_frac", "fraction"},
	{"gdo.lock_reqs_per_root", "count/root"},
	{"gdo.queued_frac", "fraction"},
	{"gdo.cpu_frac", "fraction"},
	{"directory.cpu_frac", "fraction"},
	{"xfer.transfers_per_root", "count/root"},
	{"xfer.pages_per_root", "count/root"},
	{"xfer.batches_per_transfer", "count"},
	{"xfer.gather_ms_per_transfer", "ms"},
	{"xfer.plan_us_per_transfer", "us"},
	{"xfer.apply_us_per_transfer", "us"},
	{"xfer.cpu_frac", "fraction"},
	{"pstore.cpu_frac", "fraction"},
	{"pstore.delta_page_frac", "fraction"},
	{"pstore.delta_fallbacks_per_root", "count/root"},
	{"wire.msgs_per_root", "msgs/root"},
	{"wire.bytes_per_root", "B/root"},
	{"wire.data_bytes_per_root", "B/root"},
	{"wire.commit_seq_msgs_per_root", "msgs/root"},
	{"wire.cpu_frac", "fraction"},
	{"server.cpu_frac", "fraction"},
	{"sim.cpu_frac", "fraction"},
	{"sim.virtual_ms.p50", "ms"},
	{"sim.virtual_ms.p99", "ms"},
	{"transport.cpu_frac", "fraction"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.allocs_per_root", "count/root"},
	{"gen.late_ms.max", "ms"},
	{"trace.overhead_frac", "fraction"},
}

// cpuLayers are the layers whose share of the traced run's CPU profile is
// reported as <layer>.cpu_frac.
var cpuLayers = []string{"node", "gdo", "directory", "xfer", "pstore", "wire", "server", "sim", "transport"}

// recMark is a point in a recorder's history; traffic since a mark is a
// measured window.
type recMark struct {
	msgs, transfers int
	ctr             stats.Counters
}

func markOf(rec *stats.Recorder) recMark {
	return recMark{msgs: rec.MsgCount(), transfers: len(rec.Transfers()), ctr: rec.Counters()}
}

// traffic is what the program's recorder saw in one window.
type traffic struct {
	msgs, bytes, payload        int64
	lockReqs, grants, commitSeq int64
	priced                      time.Duration // every message priced at 100 Mbps (Figures 6–8)
	xfer                        stats.TransferTotals

	globalLocks, retries, commits, aborts, deltaFallbacks int64
}

func trafficSince(rec *stats.Recorder, m recMark) traffic {
	var t traffic
	for _, r := range rec.Trace()[m.msgs:] {
		t.msgs++
		t.bytes += int64(r.Bytes)
		t.payload += int64(r.Payload)
		t.priced += netmodel.Ethernet100.MsgTime(r.Bytes)
		switch r.Kind {
		case stats.KindLockReq:
			t.lockReqs++
		case stats.KindGrant:
			t.grants++
		case stats.KindCommitSeq:
			t.commitSeq++
		}
	}
	for _, s := range rec.Transfers()[m.transfers:] {
		t.xfer.Transfers++
		t.xfer.Batches += s.Batches
		t.xfer.Pages += s.Pages
		t.xfer.Bytes += int64(s.Bytes)
		t.xfer.DeltaPages += s.DeltaPages
		t.xfer.DeltaBytes += int64(s.DeltaBytes)
		t.xfer.Plan += s.Plan
		t.xfer.Gather += s.Gather
		t.xfer.Apply += s.Apply
	}
	c := rec.Counters()
	t.globalLocks = c.GlobalLockOps - m.ctr.GlobalLockOps
	t.retries = c.Retries - m.ctr.Retries
	t.commits = c.Commits - m.ctr.Commits
	t.aborts = c.Aborts - m.ctr.Aborts
	t.deltaFallbacks = c.DeltaFallbacks - m.ctr.DeltaFallbacks
	return t
}

// add accumulates another window (the simulator measures one per cluster).
func (t *traffic) add(o traffic) {
	t.msgs += o.msgs
	t.bytes += o.bytes
	t.payload += o.payload
	t.lockReqs += o.lockReqs
	t.grants += o.grants
	t.commitSeq += o.commitSeq
	t.priced += o.priced
	t.xfer.Transfers += o.xfer.Transfers
	t.xfer.Batches += o.xfer.Batches
	t.xfer.Pages += o.xfer.Pages
	t.xfer.Bytes += o.xfer.Bytes
	t.xfer.DeltaPages += o.xfer.DeltaPages
	t.xfer.DeltaBytes += o.xfer.DeltaBytes
	t.xfer.Plan += o.xfer.Plan
	t.xfer.Gather += o.xfer.Gather
	t.xfer.Apply += o.xfer.Apply
	t.globalLocks += o.globalLocks
	t.retries += o.retries
	t.commits += o.commits
	t.aborts += o.aborts
	t.deltaFallbacks += o.deltaFallbacks
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills the recorder-derived per-layer metrics. onWire is
// false on the simulator, whose messages are Go values that never touch
// the wire codec or a socket: the wire.* counts then read 0.
func layerMetrics(m map[string]float64, t traffic, roots float64, onWire bool) {
	m["node.retries_per_root"] = ratio(float64(t.retries), roots)
	m["node.useful_frac"] = ratio(float64(t.commits), float64(t.commits+t.aborts))
	m["gdo.lock_reqs_per_root"] = ratio(float64(t.globalLocks), roots)
	m["gdo.queued_frac"] = ratio(float64(t.grants), float64(t.lockReqs))
	n := float64(t.xfer.Transfers)
	m["xfer.transfers_per_root"] = ratio(n, roots)
	m["xfer.pages_per_root"] = ratio(float64(t.xfer.Pages), roots)
	m["xfer.batches_per_transfer"] = ratio(float64(t.xfer.Batches), n)
	m["xfer.gather_ms_per_transfer"] = ratio(ms(t.xfer.Gather), n)
	m["xfer.plan_us_per_transfer"] = ratio(float64(t.xfer.Plan)/1e3, n)
	m["xfer.apply_us_per_transfer"] = ratio(float64(t.xfer.Apply)/1e3, n)
	m["pstore.delta_page_frac"] = ratio(float64(t.xfer.DeltaPages), float64(t.xfer.Pages))
	m["pstore.delta_fallbacks_per_root"] = ratio(float64(t.deltaFallbacks), roots)
	if onWire {
		m["wire.msgs_per_root"] = ratio(float64(t.msgs), roots)
		m["wire.bytes_per_root"] = ratio(float64(t.bytes), roots)
		m["wire.data_bytes_per_root"] = ratio(float64(t.payload), roots)
		m["wire.commit_seq_msgs_per_root"] = ratio(float64(t.commitSeq), roots)
	} else {
		for _, k := range []string{"wire.msgs_per_root", "wire.bytes_per_root", "wire.data_bytes_per_root", "wire.commit_seq_msgs_per_root"} {
			m[k] = 0
		}
	}
}

// spanMetrics fills the node.* phase metrics from a traced window's spans.
func spanMetrics(m map[string]float64, spans []span) {
	ph := phasesOf(spans)
	n := len(ph.acquire)
	m["node.acquire_ms.p50"] = percentile(ph.acquire, 0.5)
	m["node.acquire_ms.p99"] = percentile(ph.acquire, tailQuantile(n, 0.99))
	m["node.commit_ms.p50"] = percentile(ph.commit, 0.5)
	m["node.commit_ms.p99"] = percentile(ph.commit, tailQuantile(n, 0.99))
	m["node.exec_ms.p50"] = percentile(ph.exec, 0.5)
}

// cpuMetrics fills <layer>.cpu_frac from a CPU profile.
func cpuMetrics(m map[string]float64, profile []byte) error {
	by, total, err := cpuByLayer(profile)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		m[l+".cpu_frac"] = ratio(float64(by[l]), float64(total))
	}
	return nil
}

// runtimeMetrics fills the Go runtime metrics of a window.
func runtimeMetrics(m map[string]float64, before, after rtSnapshot, roots float64) {
	m["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	m["runtime.allocs_per_root"] = ratio(float64(after.allocs-before.allocs), roots)
}
