package main

import (
	"fmt"
	"sync"
	"time"
)

// load tracks the roots of one measured window: who is still outstanding,
// how long each finished one took, and which ones failed. Roots that
// finish after the window has been closed are ignored; they were counted
// as failed when it closed.
type load struct {
	mu        sync.Mutex
	closed    bool             // guarded by mu
	inflight  map[uint64]*plan // guarded by mu
	t0        time.Time        // window start
	samples   []sample         // one per committed root, guarded by mu
	issued    int              // guarded by mu
	committed int              // guarded by mu
	failed    int              // guarded by mu
	firstErr  error            // guarded by mu
	last      time.Time        // latest return, guarded by mu

	wg sync.WaitGroup
}

// sample is one committed root: when it was due, relative to the window
// start, and how long it took from then.
type sample struct {
	due, lat time.Duration
}

func newLoad(t0 time.Time) *load { return &load{t0: t0, inflight: make(map[uint64]*plan)} }

// start registers root as issued. Call it on the generator goroutine
// before starting the root's goroutine.
func (l *load) start(root uint64, p *plan) {
	l.wg.Add(1)
	l.mu.Lock()
	l.issued++
	l.inflight[root] = p
	l.mu.Unlock()
}

// finish records a root's outcome. Every root of these workloads must
// commit (workload.Call.FailsOut is false for all of them), so an error is
// a wrong outcome.
func (l *load) finish(root uint64, due, end time.Time, err error) {
	defer l.wg.Done()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	delete(l.inflight, root)
	if end.After(l.last) {
		l.last = end
	}
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("root %d: %w", root, err)
		}
		return
	}
	l.committed++
	l.samples = append(l.samples, sample{due: due.Sub(l.t0), lat: end.Sub(due)})
}

// loadResult is a closed window.
type loadResult struct {
	issued, committed, failed int
	samples                   []sample
	outstanding               []*plan
	firstErr                  error
	last                      time.Time
}

// drain waits up to deadline for outstanding roots, then closes the
// window: roots still running count as failed, and their plans are
// returned so the counter check can allow for their writes.
func (l *load) drain(deadline time.Duration) loadResult {
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	t := time.NewTimer(deadline)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	r := loadResult{
		issued: l.issued, committed: l.committed, failed: l.failed,
		samples: l.samples, firstErr: l.firstErr, last: l.last,
	}
	for _, p := range l.inflight {
		r.outstanding = append(r.outstanding, p)
	}
	r.failed += len(r.outstanding)
	return r
}

// subWindows splits a window of the given length into n equal parts by
// due time and returns, per part, the committed roots per second and the
// median and tail latency in ms (the tail at tailQuantile of the part's
// samples). Medians over the parts shrug off a stall that hits one part.
func subWindows(samples []sample, length time.Duration, n int, tail float64) (tput, p50, pTail []float64) {
	part := length / time.Duration(n)
	lats := make([][]float64, n)
	for _, s := range samples {
		i := int(s.due / part)
		if i >= n {
			i = n - 1
		}
		lats[i] = append(lats[i], ms(s.lat))
	}
	for _, l := range lats {
		tput = append(tput, float64(len(l))/part.Seconds())
		p50 = append(p50, percentile(l, 0.5))
		pTail = append(pTail, percentile(l, tailQuantile(len(l), tail)))
	}
	return tput, p50, pTail
}
