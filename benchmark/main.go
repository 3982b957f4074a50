// Command benchmark drives the LOTEC runtimes end to end and prints every
// metric by name and unit. Three seeded workloads run from one process:
// tcp-hot and tcp-spread on an in-process TCP cluster over loopback, and
// sim-fig3, the paper's figure-3 experiment, on the deterministic
// simulator. With -trace 1 a separate traced window reports per-layer
// metrics from spans around calls into the program, the program's own
// stats.Recorder, and a CPU profile. See README.md.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit status is non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	out      string // directory for spans, profiles and the result record
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	// wrong lists failed correctness checks; empty means correct.
	wrong []string
	// specHash identifies the generated input (workload.Spec.Hash, or the
	// legacy config's spec for sim-fig3).
	specHash string
	// notes are extra facts worth keeping with the result: sample counts,
	// the percentile actually reported, the seeds the simulator ran.
	notes map[string]any
}

func (r *report) fail(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

type runner func(cfg config) (*report, error)

var workloads = map[string]runner{
	"tcp-hot":    func(cfg config) (*report, error) { return runTCP(cfg, tcpHot) },
	"tcp-spread": func(cfg config) (*report, error) { return runTCP(cfg, tcpSpread) },
	"sim-fig3":   runSim,
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: tcp-hot, tcp-spread or sim-fig3")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 10, "length of each measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced window")
	flag.StringVar(&cfg.out, "out", ".bench_out", "directory for spans, profiles and result records")
	flag.Parse()
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload {tcp-hot|tcp-spread|sim-fig3} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := emit(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if len(rep.wrong) > 0 {
		os.Exit(1)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the provenance line, a human-readable table on standard
// error, and the result object as the last line of standard output; it
// also keeps both in the output directory.
func emit(cfg config, rep *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultOut{Correct: len(rep.wrong) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "%-34s %16.6f %s\n", d.name, v, d.unit)
	}
	for _, w := range rep.wrong {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", w)
	}
	prov := map[string]any{
		"workload":   cfg.workload,
		"spec_hash":  rep.specHash,
		"seed":       cfg.seed,
		"seconds":    cfg.window.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"notes":      rep.notes,
		"checks":     rep.wrong,
	}
	provLine, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)
	record := append(append(append(provLine, '\n'), resLine...), '\n')
	if err := os.WriteFile(filepath.Join(cfg.out, name), record, 0o644); err != nil {
		return err
	}
	fmt.Println(string(provLine))
	fmt.Println(string(resLine))
	return nil
}
