package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names the boundary a span covers.
type spanKind uint8

const (
	spanRun    spanKind = iota + 1 // NodeServer.Run or simulated Submit→done: the whole root
	spanBody                       // one method body, entry to exit
	spanInvoke                     // one node.Ctx.Invoke call from a body
	spanRead                       // one node.Ctx.ReadAt call
	spanWrite                      // one node.Ctx.WriteAt call
)

func (k spanKind) String() string {
	switch k {
	case spanRun:
		return "run"
	case spanBody:
		return "body"
	case spanInvoke:
		return "invoke"
	case spanRead:
		return "read"
	case spanWrite:
		return "write"
	}
	return "unknown"
}

// span is one timed call. Times are nanoseconds on the workload's span
// clock; parent is the span that caused this one (0 for a root's run
// span); root is the benchmark's root ID, carried in the call arguments.
type span struct {
	id, parent, root uint64
	kind             spanKind
	start, end       time.Duration
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span // guarded by mu
}

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans to path as gzipped CSV, one span per line:
// id,parent,root,name,start_ns,end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id,parent,root,name,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.root, s.kind, int64(s.start), int64(s.end))
	}
	err = w.Flush()
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// rootPhases splits each traced root that completed into the node layer's
// phases, all in milliseconds:
//
//   - acquire: from Run (or Invoke) to the start of its body, summed over
//     the root's calls — lock acquisition plus page transfer;
//   - commit: from the end of the root's last body to Run's return;
//   - exec: body time minus the Invoke spans it contains, summed.
type rootPhases struct {
	acquire, commit, exec []float64
}

func phasesOf(spans []span) rootPhases {
	byRoot := make(map[uint64][]span)
	for _, s := range spans {
		byRoot[s.root] = append(byRoot[s.root], s)
	}
	roots := make([]uint64, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	var ph rootPhases
	for _, r := range roots {
		if a, c, e, ok := phasesOfRoot(byRoot[r]); ok {
			ph.acquire = append(ph.acquire, ms(a))
			ph.commit = append(ph.commit, ms(c))
			ph.exec = append(ph.exec, ms(e))
		}
	}
	return ph
}

// phasesOfRoot computes one root's phases; ok is false when the root has
// no finished run span or no body.
func phasesOfRoot(spans []span) (acquire, commit, exec time.Duration, ok bool) {
	byID := make(map[uint64]*span, len(spans))
	var run *span
	for i := range spans {
		s := &spans[i]
		byID[s.id] = s
		if s.kind == spanRun {
			run = s
		}
	}
	if run == nil {
		return 0, 0, 0, false
	}
	// A retried root runs its body once per attempt; the last attempt is
	// the one that committed.
	var last *span
	invokeTime := make(map[uint64]time.Duration)
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case spanBody:
			if s.parent == run.id {
				if last == nil || s.start > last.start {
					last = s
				}
			} else if p, found := byID[s.parent]; found && p.kind == spanInvoke {
				acquire += s.start - p.start
			}
			exec += s.end - s.start
		case spanInvoke:
			invokeTime[s.parent] += s.end - s.start
		}
	}
	if last == nil {
		return 0, 0, 0, false
	}
	for _, d := range invokeTime {
		exec -= d
	}
	acquire += last.start - run.start
	commit = run.end - last.end
	return acquire, commit, exec, true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
