package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"syscall"
	"time"

	"lotec/internal/stats"
	"lotec/internal/workload"
)

// tcpWorkload is a load shape on the TCP runtime.
type tcpWorkload struct {
	// spec returns the workload's spec for a seed and window. The traffic
	// comes from the benchmark seed; the object population and classes
	// always from seed 1, so the seed varies only the traffic. Which object
	// is hot and how large it is would otherwise swing bytes and tail
	// latency from seed to seed.
	spec func(seed int64, window time.Duration) *workload.Spec
	// outstanding > 0 runs a closed loop with that many roots in flight;
	// 0 runs the schedule open loop at its generated arrival times.
	outstanding int
}

// objectSeed generates the TCP workloads' object populations.
const objectSeed = 1

// compile generates the workload's input for a seed.
func (wl tcpWorkload) compile(seed int64, window time.Duration) (*workload.Workload, error) {
	w, err := workload.Compile(wl.spec(seed, window))
	if err != nil {
		return nil, err
	}
	pop, err := workload.Compile(wl.spec(objectSeed, window))
	if err != nil {
		return nil, err
	}
	w.Objects, w.Classes = pop.Objects, pop.Classes
	return w, nil
}

// zipfHot4 is the zipf-hot preset on 4 nodes, over 100 ms of its arrivals:
// about a thousand distinct roots, which the closed loop cycles through.
func zipfHot4(seed int64) *workload.Spec {
	s, _ := workload.Preset("zipf-hot")
	s.Seed = seed
	s.Nodes = 4
	s.HorizonMs = 1000
	return s
}

// tcpHot is the zipf-hot preset's objects and client classes on 4 nodes,
// closed loop with 64 roots in flight: family queues at the GDO run deep.
var tcpHot = tcpWorkload{
	spec:        func(seed int64, _ time.Duration) *workload.Spec { return zipfHot4(seed) },
	outstanding: 64,
}

// tcpSpread is a read-mostly spread of small updates: 256 objects of 2–8
// pages picked uniformly, 30% writers, 8-byte writes, open loop with Poisson
// arrivals at 1,000 roots/s. Queues stay empty; socket I/O, framing and
// small deltas do the work.
var tcpSpread = tcpWorkload{spec: spreadSpec}

func spreadSpec(seed int64, window time.Duration) *workload.Spec {
	return &workload.Spec{
		Name:       "tcp-spread",
		Seed:       seed,
		Nodes:      4,
		Objects:    workload.ObjectPop{Count: 256, MinPages: 2, MaxPages: 8},
		HorizonMs:  float64(window / time.Millisecond),
		MaxRoots:   1000 * int(window/time.Second+1) * 2,
		WriteBytes: 8,
		Classes: []workload.ClientClass{{
			Name:          "client",
			Population:    1000,
			WriteFraction: 0.3,
			Rate:          workload.RateDist{Dist: "uniform", MeanHz: 1},
			Arrivals:      workload.ArrivalSpec{Process: "poisson", Envelope: "constant"},
			ObjectDist:    workload.ObjectDist{Dist: "uniform"},
		}},
	}
}

const (
	// setupRounds is how many clusters a TCP run sets up; setup_s is the
	// median. Two of them are used: one plain, one recording traffic.
	setupRounds = 9
	// warmup runs before every measured window, closed loop, so
	// connections are dialled and pages spread before timing starts.
	warmup            = 500 * time.Millisecond
	warmupOutstanding = 16
	// serialRoots is how many roots the recorded cluster runs one at a
	// time to price traffic when tracing is off.
	serialRoots = 2000
	// subWindow is the length of the parts the measured window is cut
	// into; throughput and latency are medians over the calm parts.
	subWindow = time.Second
	// drainDeadline bounds the wait for outstanding roots after a window;
	// auditDeadline bounds the counter read-back.
	drainDeadline = 10 * time.Second
	auditDeadline = 20 * time.Second
)

// partsOf returns how many sub-windows a measured window is cut into.
func partsOf(window time.Duration) int {
	return max(1, int(window/subWindow))
}

// window is one measured stretch of load on a cluster.
type window struct {
	res     loadResult
	elapsed time.Duration // from the first root issued to the last return
	lateMax time.Duration
}

func (w window) rootsPerS() float64 {
	return ratio(float64(w.res.committed), w.elapsed.Seconds())
}

// measure runs warm-up and then one window of the workload's load shape on
// c. onStart runs between the two.
func (wl tcpWorkload) measure(c *tcpCluster, next *uint64, length time.Duration, onStart func()) window {
	warm := newLoad(time.Now())
	c.closedLoop(warm, next, max(wl.outstanding, warmupOutstanding), warmup)
	warm.drain(drainDeadline)

	if onStart != nil {
		onStart()
	}
	t0 := time.Now()
	l := newLoad(t0)
	var late time.Duration
	if wl.outstanding > 0 {
		c.closedLoop(l, next, wl.outstanding, length)
	} else {
		late = c.openLoop(l, next, length)
	}
	res := l.drain(drainDeadline)
	return window{res: res, elapsed: res.last.Sub(t0), lateMax: late}
}

// serial runs n roots one after another, cycling through the schedule
// from its first plan.
func (c *tcpCluster) serial(n int) window {
	l := newLoad(time.Now())
	for root := uint64(1); root <= uint64(n); root++ {
		pi := int((root - 1) % uint64(len(c.sched.plans)))
		l.start(root, &c.sched.plans[pi])
		c.runRoot(l, root, pi, time.Now())
	}
	res := l.drain(drainDeadline)
	return window{res: res, elapsed: res.last.Sub(l.t0)}
}

// checkWindow verifies a window's outcomes and the cluster's counters.
func checkWindow(rep *report, what string, c *tcpCluster, w window) {
	if w.res.firstErr != nil {
		rep.fail("%s: a root failed that the workload oracle says commits: %v", what, w.res.firstErr)
	}
	got, err := c.readCounters(auditDeadline)
	if err != nil {
		rep.fail("%s: %v", what, err)
		return
	}
	if err := c.sched.checkCounters(got, c.sched.slackOf(w.res.outstanding)); err != nil {
		rep.fail("%s: %v", what, err)
	}
}

func runTCP(cfg config, wl tcpWorkload) (*report, error) {
	rep := &report{metrics: make(map[string]float64), specHash: wl.spec(cfg.seed, cfg.window).Hash(), notes: make(map[string]any)}
	rep.notes["objects_spec_hash"] = wl.spec(objectSeed, cfg.window).Hash()

	// Set up several clusters; keep one plain and one recording traffic.
	var kept []*tcpCluster
	defer func() {
		for _, c := range kept {
			c.close()
		}
	}()
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		var rec *stats.Recorder
		if i == 1 {
			rec = stats.NewRecorder()
		}
		var c *tcpCluster
		var took time.Duration
		var err error
		// freeAddrs releases the ports it picks, so another socket can take
		// one before a server binds it; set up again on fresh ports.
		for attempt := 0; attempt < 3; attempt++ {
			t0 := time.Now()
			c, err = setupTCP(func() (*workload.Workload, error) { return wl.compile(cfg.seed, cfg.window) }, rec)
			took = time.Since(t0)
			if !errors.Is(err, syscall.EADDRINUSE) {
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("set up cluster: %w", err)
		}
		setups = append(setups, took.Seconds())
		if i < 2 {
			kept = append(kept, c)
		} else {
			c.close()
		}
	}
	plain, recorded := kept[0], kept[1]

	// The untraced window: the end-to-end metrics.
	var next uint64 = 1
	var rtBefore rtSnapshot
	var parts *partSampler
	var steal *stealMeter
	n := partsOf(cfg.window)
	w := wl.measure(plain, &next, cfg.window, func() {
		rtBefore = readRuntime()
		parts = startParts(cfg.window, n)
		steal = startSteal()
	})
	rtAfter := readRuntime()
	steal.note(rep)
	heapMB := parts.finish()
	calm := parts.calm()
	checkWindow(rep, "untraced window", plain, w)
	rep.attempted, rep.failed = w.res.issued, w.res.failed
	roots := float64(w.res.committed)
	tput, p50, p99 := subWindows(w.res.samples, cfg.window, n, 0.99)
	rep.notes["latency_samples"] = len(w.res.samples)
	rep.notes["sub_windows"] = map[string][]float64{"roots_per_s": tput, "root_p50_ms": p50, "root_p99_ms": p99,
		"cpu_steal_frac": parts.steal}
	rep.notes["calm_sub_windows"] = calm
	m := rep.metrics
	m["roots_per_s"] = median(pick(tput, calm))
	m["root_p50_ms"] = median(pick(p50, calm))
	m["root_p99_ms"] = median(pick(p99, calm))
	m["committed_frac"] = ratio(roots, float64(w.res.issued))
	m["setup_s"] = median(setups)
	m["heap_peak_mb"] = heapMB
	runtimeMetrics(m, rtBefore, rtAfter, roots)

	// The recorded cluster. With tracing off it prices traffic per root
	// from serialRoots roots run one at a time: without interleaving the
	// counts repeat exactly for a seed. With tracing on it runs the
	// workload's own load shape for the window and reports per layer.
	var mark recMark
	var prof bytes.Buffer
	tr := &tracer{}
	var rw window
	if cfg.trace {
		var profErr error
		rw = wl.measure(recorded, &next, cfg.window, func() {
			mark = markOf(recorded.rec)
			recorded.b.tr.Store(tr)
			profErr = pprof.StartCPUProfile(&prof)
		})
		if profErr != nil {
			return nil, fmt.Errorf("start CPU profile: %w", profErr)
		}
		pprof.StopCPUProfile()
	} else {
		mark = markOf(recorded.rec)
		rw = recorded.serial(serialRoots)
	}
	t := trafficSince(recorded.rec, mark)
	checkWindow(rep, "recorded window", recorded, rw)
	rroots := float64(rw.res.committed)
	m["data_bytes_per_root"] = ratio(float64(t.payload), rroots)
	m["msgs_per_root"] = ratio(float64(t.msgs), rroots)
	m["xfer_time_us_per_root"] = ratio(float64(t.priced)/1e3, rroots)
	rep.notes["recorded_roots"] = rw.res.committed

	if cfg.trace {
		spans := tr.snapshot()
		layerMetrics(m, t, rroots, true)
		spanMetrics(m, spans)
		if err := cpuMetrics(m, prof.Bytes()); err != nil {
			return nil, err
		}
		m["sim.virtual_ms.p50"] = 0
		m["sim.virtual_ms.p99"] = 0
		m["gen.late_ms.max"] = ms(rw.lateMax)
		m["trace.overhead_frac"] = 1 - ratio(rw.rootsPerS(), w.rootsPerS())
		rep.notes["traced_roots_per_s"] = rw.rootsPerS()
		rep.notes["spans"] = len(spans)
		if err := writeTrace(cfg, spans, prof.Bytes()); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// writeTrace keeps a traced run's spans and CPU profile in the output
// directory.
func writeTrace(cfg config, spans []span, profile []byte) error {
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := writeSpans(base+"-spans.csv.gz", spans); err != nil {
		return err
	}
	return os.WriteFile(base+"-cpu.pprof", profile, 0o644)
}
