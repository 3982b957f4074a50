package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"lotec/internal/core"
	"lotec/internal/sim"
	"lotec/internal/workload"
)

const (
	// figure3Bytes is the committed figure-3 LOTEC bytes_moved ledger row
	// (BENCH_results.json); figure3Seed is the seed it was generated with.
	figure3Bytes = 16863232
	figure3Seed  = 43
	// simCycle is how many derived seeds sim-fig3 cycles through. The
	// traffic and virtual-latency metrics cover one cycle, so they are a
	// pure function of the benchmark seed.
	simCycle = 24
)

// figure3 returns the paper's figure-3 input: 20 objects of 10–20 pages,
// high contention, 150 roots, whole-attribute writes.
func figure3(seed int64) (workload.Config, error) {
	spec, err := sim.FigureByID("3")
	if err != nil {
		return workload.Config{}, err
	}
	cfg := spec.Workload
	cfg.Seed = seed
	return cfg, nil
}

// simSeeds derives the cycle of workload seeds for a benchmark seed.
func simSeeds(seed int64) []int64 {
	out := make([]int64, simCycle)
	for i := range out {
		out[i] = seed*simCycle + int64(i)
	}
	return out
}

// simRun is one figure-3 run on a fresh simulated cluster.
type simRun struct {
	at               time.Duration // start, from the start of its loop
	setup, host      time.Duration
	cpu              time.Duration // process CPU time over host
	roots, committed int
	virtual          []float64 // At→Done per committed root, ms of virtual time
	traffic          traffic
}

// simCluster is a generated workload installed on a fresh simulated LOTEC
// cluster with the benchmark's bodies.
type simCluster struct {
	c     *sim.Cluster
	w     *workload.Workload
	sched *schedule
	b     *bodies
}

func newSimCluster(wcfg workload.Config, tr *tracer) (*simCluster, error) {
	w, err := workload.Generate(wcfg)
	if err != nil {
		return nil, err
	}
	sched, err := newSchedule(w)
	if err != nil {
		return nil, err
	}
	c, err := sim.NewCluster(sim.Config{Protocol: core.LOTEC, Nodes: w.Cfg.Nodes, PageSize: w.Cfg.PageSize})
	if err != nil {
		return nil, err
	}
	b := &bodies{sched: sched, writeBytes: w.Cfg.WriteBytes, now: c.Now}
	b.tr.Store(tr)
	for _, cls := range w.Classes {
		if err := c.AddClass(cls); err != nil {
			return nil, err
		}
		for _, m := range cls.Methods() {
			if err := c.RegisterBody(cls, m.Name, b.body); err != nil {
				return nil, err
			}
		}
	}
	for _, o := range w.Objects {
		obj, err := c.CreateObject(o.Class, o.Owner)
		if err != nil {
			return nil, err
		}
		b.objs = append(b.objs, obj)
	}
	return &simCluster{c: c, w: w, sched: sched, b: b}, nil
}

// run submits every root at its arrival time, with root IDs from
// rootBase, and runs the simulation to quiescence. Roots that fail are
// reported to rep: every root of these workloads commits.
func (s *simCluster) run(rootBase uint64, rep *report) (simRun, error) {
	var r simRun
	tr := s.b.tr.Load()
	t0, cpu0 := time.Now(), cpuTime()
	mark := markOf(s.c.Recorder())
	runIDs := make([]uint64, len(s.sched.plans))
	for i := range s.sched.plans {
		p := &s.sched.plans[i]
		if tr != nil {
			runIDs[i] = tr.newID()
		}
		arg := rootArg(i, rootBase+uint64(i), runIDs[i])
		if err := s.c.SubmitTagged(time.Duration(p.at), p.node, s.b.objs[p.calls[0].obj], p.calls[0].method, arg, i); err != nil {
			return r, err
		}
	}
	if err := s.c.Run(); err != nil {
		return r, err
	}
	r.host, r.cpu = time.Since(t0), cpuTime()-cpu0

	r.roots = len(s.sched.plans)
	for _, res := range s.c.Results() {
		i := res.Tag.(int)
		if res.Err != nil {
			rep.fail("seed %d root %d: failed, but the workload oracle says it commits: %v", s.w.Cfg.Seed, i, res.Err)
			continue
		}
		r.committed++
		s.sched.commit(&s.sched.plans[i])
		r.virtual = append(r.virtual, ms(res.Done-res.At))
		if tr != nil {
			tr.add(span{id: runIDs[i], root: rootBase + uint64(i), kind: spanRun, start: res.At, end: res.Done})
		}
	}
	r.traffic = trafficSince(s.c.Recorder(), mark)
	return r, nil
}

// readCounters returns every object's per-attribute commit counters, read
// from the authoritative copy of each page.
func (s *simCluster) readCounters() ([][]byte, error) {
	got := make([][]byte, len(s.b.objs))
	for i, obj := range s.b.objs {
		data, err := s.c.ObjectBytes(obj)
		if err != nil {
			return nil, err
		}
		class := s.w.Objects[i].Class
		layout, err := s.c.Schemas().Layout(class)
		if err != nil {
			return nil, err
		}
		for _, a := range s.sched.classes[class].Attrs() {
			off, err := layout.AttrOffset(a.ID)
			if err != nil {
				return nil, err
			}
			got[i] = append(got[i], data[off:off+counterBytes]...)
		}
	}
	return got, nil
}

// runSimOnce runs the figure-3 input for seed on a fresh cluster and checks
// every root's outcome and every counter.
func runSimOnce(seed int64, rootBase uint64, tr *tracer, rep *report) (simRun, error) {
	t0 := time.Now()
	wcfg, err := figure3(seed)
	if err != nil {
		return simRun{}, err
	}
	s, err := newSimCluster(wcfg, tr)
	if err != nil {
		return simRun{}, err
	}
	setup := time.Since(t0)
	r, err := s.run(rootBase, rep)
	if err != nil {
		return r, err
	}
	r.setup = setup
	got, err := s.readCounters()
	if err != nil {
		rep.fail("seed %d: %v", seed, err)
		return r, nil
	}
	if err := s.sched.checkCounters(got, nil); err != nil {
		rep.fail("seed %d: %v", seed, err)
	}
	return r, nil
}

// simLoop runs figure-3 clusters over the seed cycle until length has
// passed and at least one full cycle ran.
type simLoop struct {
	runs      []simRun
	committed int
	roots     int
}

func loopSim(seeds []int64, length time.Duration, tr *tracer, rep *report, first map[int64][2]int64) (*simLoop, error) {
	l := &simLoop{}
	t0 := time.Now()
	var rootBase uint64 = 1
	for i := 0; i < len(seeds) || time.Since(t0) < length; i++ {
		seed := seeds[i%len(seeds)]
		at := time.Since(t0)
		r, err := runSimOnce(seed, rootBase, tr, rep)
		if err != nil {
			return nil, fmt.Errorf("sim-fig3 seed %d: %w", seed, err)
		}
		r.at = at
		rootBase += uint64(r.roots)
		// The simulator is deterministic: every repeat of a seed must move
		// exactly the bytes and messages its first run did.
		moved := [2]int64{r.traffic.payload, r.traffic.msgs}
		if f, ok := first[seed]; !ok {
			first[seed] = moved
		} else if f != moved {
			rep.fail("seed %d: repeat moved %d bytes in %d messages, first run %d in %d",
				seed, moved[0], moved[1], f[0], f[1])
		}
		l.runs = append(l.runs, r)
		l.committed += r.committed
		l.roots += r.roots
	}
	return l, nil
}

// rootsPerS is the median over runs of committed roots per second of the
// process's CPU time spent in Submit+Run, so a stall that hits a few runs
// does not set the value. CPU time, unlike wall time, leaves out what the
// hypervisor steals. A non-nil calm marks the loop's calm sub-windows;
// only runs that started in one count.
func (l *simLoop) rootsPerS(calm []bool) float64 {
	var per []float64
	for _, r := range l.runs {
		if calm == nil || calm[min(int(r.at/subWindow), len(calm)-1)] {
			per = append(per, ratio(float64(r.committed), r.cpu.Seconds()))
		}
	}
	return median(per)
}

// wallRootsPerS is the median over all runs of committed roots per wall
// second spent in Submit+Run.
func (l *simLoop) wallRootsPerS() float64 {
	per := make([]float64, len(l.runs))
	for i, r := range l.runs {
		per[i] = ratio(float64(r.committed), r.host.Seconds())
	}
	return median(per)
}

// crossCheck runs the committed figure-3 input and compares its traffic
// with the ledger, proving the benchmark drives the paper's experiment.
func crossCheck(rep *report) error {
	r, err := runSimOnce(figure3Seed, 1, nil, rep)
	if err != nil {
		return err
	}
	if r.committed != 150 || r.traffic.payload != figure3Bytes {
		rep.fail("figure-3 cross-check (seed %d): %d roots moved %d bytes, ledger says 150 roots and %d",
			figure3Seed, r.committed, r.traffic.payload, figure3Bytes)
	}
	return nil
}

func runSim(cfg config) (*report, error) {
	wcfg, err := figure3(cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{
		metrics:  make(map[string]float64),
		specHash: workload.Spec{Name: "figure3", Seed: wcfg.Seed, Legacy: &wcfg}.Hash(),
		notes:    make(map[string]any),
	}
	if err := crossCheck(rep); err != nil {
		return nil, err
	}
	seeds := simSeeds(cfg.seed)
	rep.notes["workload_seeds"] = seeds
	first := make(map[int64][2]int64)

	rtBefore := readRuntime()
	parts := startParts(cfg.window, partsOf(cfg.window))
	steal := startSteal()
	l, err := loopSim(seeds, cfg.window, nil, rep, first)
	heapMB := parts.finish()
	rtAfter := readRuntime()
	steal.note(rep)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = l.roots, l.roots-l.committed
	m := rep.metrics
	var setups []float64
	for _, r := range l.runs {
		setups = append(setups, r.setup.Seconds())
	}
	// Traffic and virtual latency over the first cycle: one run per seed.
	var cyc traffic
	var virtual []float64
	var cycRoots int
	for _, r := range l.runs[:len(seeds)] {
		cyc.add(r.traffic)
		virtual = append(virtual, r.virtual...)
		cycRoots += r.committed
	}
	q99 := tailQuantile(len(virtual), 0.99)
	rep.notes["latency_samples"] = len(virtual)
	rep.notes["p99_quantile_reported"] = q99
	rep.notes["runs"] = len(l.runs)
	rep.notes["sub_windows"] = map[string][]float64{"cpu_steal_frac": parts.steal}
	m["roots_per_s"] = l.rootsPerS(parts.calm())
	rep.notes["wall_roots_per_s"] = l.wallRootsPerS()
	m["root_p50_ms"] = percentile(virtual, 0.5)
	m["root_p99_ms"] = percentile(virtual, q99)
	m["committed_frac"] = ratio(float64(l.committed), float64(l.roots))
	m["setup_s"] = median(setups)
	m["heap_peak_mb"] = heapMB
	m["data_bytes_per_root"] = ratio(float64(cyc.payload), float64(cycRoots))
	m["msgs_per_root"] = ratio(float64(cyc.msgs), float64(cycRoots))
	m["xfer_time_us_per_root"] = ratio(float64(cyc.priced)/1e3, float64(cycRoots))
	runtimeMetrics(m, rtBefore, rtAfter, float64(l.committed))

	if !cfg.trace {
		return rep, nil
	}
	tr := &tracer{}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	tl, err := loopSim(seeds, cfg.window, tr, rep, first)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	var t traffic
	var tv []float64
	for _, r := range tl.runs {
		t.add(r.traffic)
		tv = append(tv, r.virtual...)
	}
	spans := tr.snapshot()
	layerMetrics(m, t, float64(tl.committed), false)
	spanMetrics(m, spans)
	if err := cpuMetrics(m, prof.Bytes()); err != nil {
		return nil, err
	}
	m["sim.virtual_ms.p50"] = percentile(tv, 0.5)
	m["sim.virtual_ms.p99"] = percentile(tv, tailQuantile(len(tv), 0.99))
	m["gen.late_ms.max"] = 0
	m["trace.overhead_frac"] = 1 - ratio(tl.rootsPerS(nil), l.rootsPerS(nil))
	rep.notes["traced_roots_per_s"] = tl.rootsPerS(nil)
	rep.notes["spans"] = len(spans)
	if err := writeTrace(cfg, spans, prof.Bytes()); err != nil {
		return nil, err
	}
	return rep, nil
}
