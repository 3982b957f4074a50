package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"lotec/internal/workload"
)

// TestTailQuantile checks the percentile rule: report the wanted tail
// quantile when at least ten samples lie beyond it, else the highest
// quantile that still leaves ten beyond.
func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, got  float64
		beyondWant int
	}{
		{n: 1000, want: 0.99, got: 0.99, beyondWant: 10},
		{n: 5000, want: 0.99, got: 0.99, beyondWant: 50},
		{n: 500, want: 0.99, got: 0.98, beyondWant: 10},
		{n: 150, want: 0.99, got: 1 - 10.0/150, beyondWant: 10},
		{n: 12, want: 0.99, got: 0.5, beyondWant: 6},
	} {
		q := tailQuantile(tc.n, tc.want)
		if q != tc.got {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", tc.n, tc.want, q, tc.got)
		}
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
		}
		v := percentile(xs, q)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tc.beyondWant {
			t.Errorf("n=%d: %d samples beyond the reported value %v, want %d", tc.n, beyond, v, tc.beyondWant)
		}
	}
}

// TestCalmParts keeps the sub-windows whose steal share is at most the
// median, and every sub-window when the share is unknown.
func TestCalmParts(t *testing.T) {
	for _, tc := range []struct {
		steal []float64
		want  []bool
	}{
		{[]float64{0.01, 0.20, 0, 0.02, 0.01}, []bool{true, false, true, false, true}},
		{[]float64{0, 0, 0, 0.3}, []bool{true, true, true, false}},
		{[]float64{-1, -1, -1}, []bool{true, true, true}},
	} {
		if got := calmParts(tc.steal); !slices.Equal(got, tc.want) {
			t.Errorf("calmParts(%v) = %v, want %v", tc.steal, got, tc.want)
		}
	}
	if got := pick([]float64{5, 6, 7, 8}, []bool{false, true, false, true}); !slices.Equal(got, []float64{6, 8}) {
		t.Errorf("pick = %v, want [6 8]", got)
	}
}

// TestLayerOfInnermostInternalFrame charges synthetic stacks.
func TestLayerOfInnermostInternalFrame(t *testing.T) {
	for _, tc := range []struct {
		frames []string // leaf first
		want   string
	}{
		{[]string{
			"sort.insertionSortCmpFunc",
			"slices.SortFunc",
			"lotec/internal/gdo.(*Directory).buildWaitsForLocked",
			"lotec/internal/gdo.(*Directory).Release",
			"lotec/internal/directory.(*Sharded).Release",
			"lotec/internal/server.(*GDOServer).handle",
		}, "gdo"},
		{[]string{
			"syscall.Syscall",
			"net.(*conn).Read",
			"lotec/internal/wire.ReadFrame",
			"lotec/internal/server.(*TCPNet).readLoop",
		}, "wire"},
		{[]string{
			"runtime.memmove",
			"lotec/internal/pstore.(*Store).Write",
			"lotec/internal/node.(*Ctx).WriteAt",
			"main.(*bodies).body",
			"lotec/internal/node.(*Engine).invokeInner",
		}, "pstore"},
		{[]string{
			"encoding/binary.littleEndian.PutUint64",
			"main.(*bodies).body",
			"lotec/internal/node.(*Engine).invokeInner",
		}, benchLayer},
		{[]string{"lotec/internal/xfer.(*Engine).Fetch.func1"}, "xfer"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, otherLayer},
		{nil, otherLayer},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

//go:noinline
func burnCPU(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1e5; i++ {
			n += i * i
		}
	}
	return n
}

// TestProfileDecodes decodes a real CPU profile with the stdlib decoder.
func TestProfileDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	burnCPU(400 * time.Millisecond)
	pprof.StopCPUProfile()
	by, total, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatalf("profile decoded to no CPU time (%v)", by)
	}
	raw, err := gunzip(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if strings.HasSuffix(p.str(p.funcName[fn]), ".burnCPU") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("no sample names burnCPU among %d samples", len(p.samples))
	}
}

// smallSim runs a small generated workload on the simulator with the
// benchmark's bodies.
func smallSim(t *testing.T) *simCluster {
	t.Helper()
	s, err := newSimCluster(workload.Config{
		Seed: 7, Objects: 6, MinPages: 1, MaxPages: 3, Transactions: 40, Nodes: 3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	r, err := s.run(1, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.wrong) > 0 || r.committed != r.roots {
		t.Fatalf("%d of %d roots committed: %v", r.committed, r.roots, rep.wrong)
	}
	return s
}

// TestCounterCheckCatchesLostUpdate reads back the counters of a real run,
// then injects a lost and a doubled update into what was read.
func TestCounterCheckCatchesLostUpdate(t *testing.T) {
	s := smallSim(t)
	got, err := s.readCounters()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.sched.checkCounters(got, nil); err != nil {
		t.Fatalf("clean run fails the counter check: %v", err)
	}
	// Find a counter some root wrote.
	exp := s.sched.expectedCounters()
	obj, off := -1, 0
	for i, base := range s.sched.slotBase {
		for a := 0; base+a < len(exp) && a*counterBytes < len(got[i]); a++ {
			if exp[base+a] > 0 {
				obj, off = i, a*counterBytes
				break
			}
		}
		if obj >= 0 {
			break
		}
	}
	if obj < 0 {
		t.Fatal("no root wrote any attribute")
	}
	for _, delta := range []int64{-1, +1} {
		bad := make([][]byte, len(got))
		for i := range got {
			bad[i] = append([]byte(nil), got[i]...)
		}
		v := int64(binary.LittleEndian.Uint64(bad[obj][off:]))
		binary.LittleEndian.PutUint64(bad[obj][off:], uint64(v+delta))
		if err := s.sched.checkCounters(bad, nil); err == nil {
			t.Errorf("counter off by %+d passes the check", delta)
		}
	}
}

// TestCounterSlackCoversOutstandingRoots: a root still outstanding when
// the window closed may or may not have committed, but no more than once.
func TestCounterSlackCoversOutstandingRoots(t *testing.T) {
	s := smallSim(t)
	got, err := s.readCounters()
	if err != nil {
		t.Fatal(err)
	}
	var p *plan
	for i := range s.sched.plans {
		if len(s.sched.plans[i].writes) > 0 {
			p = &s.sched.plans[i]
			break
		}
	}
	if p == nil {
		t.Fatal("no writing root")
	}
	slot := p.writes[0]
	obj := 0
	for i, base := range s.sched.slotBase {
		if base <= slot {
			obj = i
		}
	}
	off := (slot - s.sched.slotBase[obj]) * counterBytes
	slack := s.sched.slackOf([]*plan{p})
	inc := func(by int) [][]byte {
		out := make([][]byte, len(got))
		for i := range got {
			out[i] = append([]byte(nil), got[i]...)
		}
		v := binary.LittleEndian.Uint64(out[obj][off:])
		binary.LittleEndian.PutUint64(out[obj][off:], v+uint64(by))
		return out
	}
	if err := s.sched.checkCounters(inc(1), slack); err != nil {
		t.Errorf("one commit of an outstanding root fails the check: %v", err)
	}
	if err := s.sched.checkCounters(inc(int(slack[slot])+1), slack); err == nil {
		t.Error("an outstanding root committing twice passes the check")
	}
}

// TestPaceReportsLateness: a generator stalled by one start runs late for
// the starts behind it, and reports it.
func TestPaceReportsLateness(t *testing.T) {
	dues := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	late := pace(dues, func(i int, due time.Time) {
		if i == 0 {
			time.Sleep(30 * time.Millisecond)
		}
	})
	if late < 25*time.Millisecond {
		t.Errorf("lateness %v after a 30ms stall, want at least 25ms", late)
	}
	onTime := pace([]time.Duration{0, 20 * time.Millisecond}, func(int, time.Time) {})
	if onTime > 15*time.Millisecond {
		t.Errorf("lateness %v with no stall", onTime)
	}
}

// TestPhasesOfRoot splits a synthetic root: Run at 0, a first attempt's
// body 1–2, the committed attempt's body 5–20 with one Invoke 8–15 whose
// body runs 10–14, and Run returning at 23.
func TestPhasesOfRoot(t *testing.T) {
	spans := []span{
		{id: 1, root: 9, kind: spanRun, start: 0, end: 23},
		{id: 2, parent: 1, root: 9, kind: spanBody, start: 1, end: 2},
		{id: 3, parent: 1, root: 9, kind: spanBody, start: 5, end: 20},
		{id: 4, parent: 3, root: 9, kind: spanInvoke, start: 8, end: 15},
		{id: 5, parent: 4, root: 9, kind: spanBody, start: 10, end: 14},
		{id: 6, parent: 5, root: 9, kind: spanWrite, start: 11, end: 12},
	}
	acquire, commit, exec, ok := phasesOfRoot(spans)
	if !ok {
		t.Fatal("root not recognized")
	}
	// acquire: Run→last body (5) + Invoke→its body (2); commit: 20→23;
	// exec: bodies 1+15+4 minus the Invoke's 7.
	if acquire != 7 || commit != 3 || exec != 13 {
		t.Errorf("phases = acquire %v, commit %v, exec %v; want 7, 3, 13", acquire, commit, exec)
	}
}

// TestFigure3CrossCheck: the benchmark's bodies on the committed figure-3
// input move exactly the ledger's bytes.
func TestFigure3CrossCheck(t *testing.T) {
	rep := &report{}
	if err := crossCheck(rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.wrong) > 0 {
		t.Fatal(rep.wrong)
	}
}

// TestMetricsMatchBenchmarkJSON: the program runs every workload and
// reports exactly the metrics, with the units, that BENCHMARK.json at the
// repository root declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	check := func(what string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", what, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					what, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
