package sim

import (
	"reflect"
	"testing"

	"lotec/internal/core"
	"lotec/internal/ids"
	"lotec/internal/workload"
)

// TestUniformPresetMatchesLegacyDriver is the compatibility contract of the
// spec compiler (acceptance criterion): compiling the "uniform" preset must
// reproduce the pre-spec uniform random driver's traffic byte-for-byte —
// identical schedule in, identical message trace out.
func TestUniformPresetMatchesLegacyDriver(t *testing.T) {
	spec, ok := workload.Preset("uniform")
	if !ok {
		t.Fatal("uniform preset missing")
	}
	compiled, err := workload.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := GenerateWorkload(WorkloadConfig{Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}

	// The schedules must be structurally identical...
	if !reflect.DeepEqual(compiled.Roots, legacy.Roots) {
		t.Fatal("uniform preset schedule differs from the legacy driver")
	}
	if !reflect.DeepEqual(compiled.Objects, legacy.Objects) {
		t.Fatal("uniform preset object population differs from the legacy driver")
	}

	// ...and so must the executed message traces, byte for byte.
	run := func(w *Workload) traceFingerprint {
		c, _, err := w.Execute(Config{Protocol: core.LOTEC})
		if err != nil {
			t.Fatal(err)
		}
		fp, gather := fingerprintCluster(c)
		fp.Fetch.Gather = gather.Gather
		return fp
	}
	a := run(WrapWorkload(compiled))
	b := run(legacy)
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("trace length diverged: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if !reflect.DeepEqual(a.Trace[i], b.Trace[i]) {
			t.Fatalf("trace record %d diverged:\n preset %+v\n legacy %+v", i, a.Trace[i], b.Trace[i])
		}
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fingerprints diverged:\n preset %+v\n legacy %+v", a, b)
	}
}

// TestSpecWorkloadsExecute runs every non-legacy preset end to end on the
// simulator: all roots report, injected aborts match the oracle, state is
// coherent.
func TestSpecWorkloadsExecute(t *testing.T) {
	for _, name := range []string{"zipf-hot", "diurnal", "write-heavy"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, ok := workload.Preset(name)
			if !ok {
				t.Fatalf("preset %q missing", name)
			}
			w, err := workload.Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			c, _, err := WrapWorkload(w).Execute(Config{Protocol: core.LOTEC})
			if err != nil {
				t.Fatal(err)
			}
			results := c.Results()
			if len(results) != len(w.Roots) {
				t.Fatalf("%d roots, %d results", len(w.Roots), len(results))
			}
			for _, r := range results {
				idx := r.Tag.(int)
				if want := w.Roots[idx].Call.FailsOut(); want != (r.Err != nil) {
					t.Errorf("root %d outcome mismatch: want fail=%v, err=%v", idx, want, r.Err)
				}
				if r.Done < r.At {
					t.Errorf("root %d finished at %v before arrival %v", idx, r.Done, r.At)
				}
			}
			if err := c.VerifyPageMapCoherence(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDedicatedDirectoryCluster checks the TCP topology: one unreplicated
// directory host on its own (N+1)-th simulated node, every directory op a
// real wire round trip. Runs must stay correct and directory traffic must
// actually hit the dedicated node.
func TestDedicatedDirectoryCluster(t *testing.T) {
	w, err := GenerateWorkload(smallWorkload(13))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := w.Execute(Config{Protocol: core.LOTEC, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Results() {
		if r.Err != nil {
			t.Fatalf("root failed under dedicated directory: %v", r.Err)
		}
	}
	if err := c.VerifyPageMapCoherence(); err != nil {
		t.Error(err)
	}
	dirNode := ids.NodeID(w.Cfg.Nodes + 1)
	toDir, fromDir, between := 0, 0, 0
	for _, m := range c.Recorder().Trace() {
		switch {
		case m.To == dirNode:
			toDir++
		case m.From == dirNode:
			fromDir++
		default:
			between++
		}
	}
	if toDir == 0 || fromDir == 0 {
		t.Errorf("no directory traffic on the dedicated node (to=%d from=%d)", toDir, fromDir)
	}
	// Data still moves site-to-site, not through the directory.
	if between == 0 {
		t.Error("no site-to-site traffic recorded")
	}

	// The same workload on the co-located layout must commit the same
	// roots (the topology changes message routing, not outcomes).
	c2, _, err := w.Execute(Config{Protocol: core.LOTEC})
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Results()) != len(c.Results()) {
		t.Errorf("dedicated vs co-located result counts differ: %d vs %d",
			len(c.Results()), len(c2.Results()))
	}
}
