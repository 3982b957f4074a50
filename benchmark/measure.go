package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs; 0 for
// no samples. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	// The epsilon keeps q·n from rounding up past an exact rank.
	i := int(math.Ceil(q*float64(len(xs))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tailQuantile returns the quantile to report for a wanted tail quantile
// over n samples: want itself when at least minBeyond samples lie beyond
// it, else the highest quantile that still leaves minBeyond beyond (the
// median when even that is impossible).
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return want
	}
	hi := 1 - float64(minBeyond)/float64(n)
	if hi < 0.5 {
		hi = 0.5
	}
	if want > hi {
		return hi
	}
	return want
}

func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// runtime/metrics names the benchmark reads.
const (
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU  = "/cpu/classes/total:cpu-seconds"
	mAllocs    = "/gc/heap/allocs:objects"
	mHeapLive  = "/gc/heap/live:bytes"
	heapSample = 5 * time.Millisecond
)

// rtSnapshot reads the runtime counters a window reports deltas of.
type rtSnapshot struct {
	gcCPU, totalCPU float64
	allocs          uint64
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{{Name: mGCCPU}, {Name: mTotalCPU}, {Name: mAllocs}}
	metrics.Read(s)
	var r rtSnapshot
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[2].Value.Uint64()
	}
	return r
}

// partSampler cuts the expected window into n equal parts and samples
// each one: the live heap (as of the last GC) every 5 ms, keeping the
// part's peak, and the share of the machine's CPU time the hypervisor gave
// to other guests over the part (see stealMeter).
type partSampler struct {
	stop, done chan struct{}
	// Written by the sampler, read after done is closed.
	peaks []uint64
	steal []float64 // -1 where /proc/stat could not be read
}

func startParts(window time.Duration, n int) *partSampler {
	p := &partSampler{stop: make(chan struct{}), done: make(chan struct{}),
		peaks: make([]uint64, n), steal: make([]float64, n)}
	part := window / time.Duration(n)
	go func() {
		defer close(p.done)
		s := []metrics.Sample{{Name: mHeapLive}}
		t := time.NewTicker(heapSample)
		defer t.Stop()
		t0 := time.Now()
		cur, st := 0, startSteal()
		for {
			metrics.Read(s)
			if i := min(int(time.Since(t0)/part), n-1); i != cur {
				f := st.frac()
				for ; cur < i; cur++ {
					p.steal[cur] = f
				}
				st = startSteal()
			}
			if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > p.peaks[cur] {
				p.peaks[cur] = s[0].Value.Uint64()
			}
			select {
			case <-p.stop:
				f := st.frac()
				for ; cur < n; cur++ {
					p.steal[cur] = f
				}
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// finish stops sampling and returns the median of the parts' heap peaks in
// MiB, so one part's GC timing does not set the value.
func (p *partSampler) finish() float64 {
	close(p.stop)
	<-p.done
	mb := make([]float64, len(p.peaks))
	for i, b := range p.peaks {
		mb[i] = float64(b) / (1 << 20)
	}
	return median(mb)
}

// calm marks the parts whose steal share is at most the median share: the
// half of the window the hypervisor disturbed least. Every part is calm
// when the steal share is unknown. Call it after finish.
func (p *partSampler) calm() []bool {
	return calmParts(p.steal)
}

func calmParts(steal []float64) []bool {
	calm := make([]bool, len(steal))
	cut := median(steal)
	for i, f := range steal {
		calm[i] = f <= cut || cut < 0
	}
	return calm
}

// pick returns the xs whose part is calm.
func pick(xs []float64, calm []bool) []float64 {
	var out []float64
	for i, x := range xs {
		if calm[i] {
			out = append(out, x)
		}
	}
	return out
}

// cpuTime returns the user and system CPU time the process has used; 0
// where the platform does not report it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealMeter measures the share of the machine's CPU time the hypervisor
// gave to other guests during a window (the steal column of /proc/stat).
// It explains noisy wall-clock figures; it adjusts none of them.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() *stealMeter {
	s := &stealMeter{}
	s.steal, s.total, s.ok = readSteal()
	return s
}

// frac returns the steal share since the meter started; -1 when the
// platform does not expose it or no tick has passed.
func (s *stealMeter) frac() float64 {
	steal, total, ok := readSteal()
	if !s.ok || !ok || total <= s.total {
		return -1
	}
	return float64(steal-s.steal) / float64(total-s.total)
}

// note records the window's steal share in the report's notes, when the
// platform exposes it.
func (s *stealMeter) note(rep *report) {
	if f := s.frac(); f >= 0 {
		rep.notes["cpu_steal_frac"] = f
	}
}

// readSteal returns the steal and total CPU ticks from /proc/stat.
func readSteal() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (columns 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
