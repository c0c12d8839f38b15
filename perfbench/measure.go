package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// setups is how many times a run builds its inputs; setup_s is the
	// median, so one slow set-up does not move it.
	setups = 15
	// minOps is the fewest successful operations a run reports
	// percentiles over; a run goes on past -seconds until it has them,
	// for at most overtime more seconds.
	minOps   = 100
	overtime = 60
)

// now reads the host clock. It is the one wall-clock source of the
// benchmark.
func now() time.Time {
	return time.Now() //ppcvet:ignore the benchmark measures host time by design
}

func msSince(t time.Time) float64 { return float64(now().Sub(t)) / float64(time.Millisecond) }

// cpuNow returns the CPU time the process has used so far, user and
// system, on all its threads. Operations and set-ups are timed with it
// rather than with the wall clock: on a shared virtual machine the
// hypervisor takes the CPU away for a quarter of the time in some
// minutes and not in others (steal), which moves wall-clock figures by
// more than any bound a comparison could use, while the process's CPU
// time leaves that time out.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func cpuMsSince(c time.Duration) float64 {
	return float64(cpuNow()-c) / float64(time.Millisecond)
}

// op is one measured operation: a grid cell or a /v1/run request.
type op struct {
	id     int // index of the operation's input within its round
	round  int
	kind   string
	ok     bool
	status int
	body   []byte  // Result JSON, or the error envelope of a failed request
	refs   int64   // references the operation delivered
	hit    bool    // served from a result cache
	ms     float64 // process CPU time while it ran
	alloc  uint64  // heap bytes allocated while it ran
}

// pass is the ops of consecutive rounds over one program instance.
type pass struct{ ops []op }

// measure runs f as one operation and returns the process CPU time it
// took and the heap bytes allocated meanwhile. ReadMemStats stops the
// world, so both reads sit outside the timed interval.
func measure(f func()) (ms float64, alloc uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a0 := m.TotalAlloc
	c0 := cpuNow()
	f()
	ms = cpuMsSince(c0)
	runtime.ReadMemStats(&m)
	return ms, m.TotalAlloc - a0
}

func (p *pass) succeeded() int {
	n := 0
	for i := range p.ops {
		if p.ops[i].ok {
			n++
		}
	}
	return n
}

func (p *pass) failed() int { return len(p.ops) - p.succeeded() }

func (p *pass) seconds() float64 {
	s := 0.0
	for i := range p.ops {
		s += p.ops[i].ms
	}
	return s / 1000
}

// peakSampler polls the live heap the runtime measured at its last
// collection, keeping the largest value seen since the last take.
type peakSampler struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

func liveHeap() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

func startPeakSampler() *peakSampler {
	s := &peakSampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.peak.Store(liveHeap())
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			s.observe()
			select {
			case <-s.quit:
				s.observe()
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *peakSampler) observe() {
	v := liveHeap()
	for {
		cur := s.peak.Load()
		if v <= cur || s.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// take returns the peak since the last take and starts a new interval
// at the current live heap.
func (s *peakSampler) take() uint64 {
	s.observe()
	return s.peak.Swap(liveHeap())
}

// stop ends the sampler goroutine and waits for it.
func (s *peakSampler) stop() {
	close(s.quit)
	<-s.done
}

// setupInst builds the workload n times, keeps the last instance and
// returns the median set-up CPU time in seconds.
func setupInst(w workload, e *env, n int) (inst, float64, error) {
	var times []float64
	var in inst
	for i := 0; i < n; i++ {
		if in != nil {
			in.close()
		}
		// Each set-up starts from a collected heap, so one set-up's
		// garbage is not collected on the next one's time.
		runtime.GC()
		c0 := cpuNow()
		var err error
		if in, err = w.setup(e); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, cpuMsSince(c0)/1000)
	}
	return in, median(times), nil
}

// runTimed is the untraced run: set up, run whole rounds for the
// requested seconds, check every output, report end-to-end metrics.
func runTimed(w workload, e *env) (result, error) {
	in, setupS, err := setupInst(w, e, setups)
	if err != nil {
		return result{}, err
	}
	defer in.close()
	runtime.GC()
	peaks := startPeakSampler()
	p := &pass{}
	var roundS, roundPeak []float64
	t0 := now()
	for r := 0; ; r++ {
		el := msSince(t0) / 1000
		if r > 0 && el >= e.seconds && (p.succeeded() >= minOps || el >= e.seconds+overtime) {
			break
		}
		n := len(p.ops)
		if err := in.round(r, p, nil); err != nil {
			peaks.stop()
			return result{}, err
		}
		roundS = append(roundS, (&pass{ops: p.ops[n:]}).seconds())
		roundPeak = append(roundPeak, float64(peaks.take()))
	}
	peaks.stop()
	res := result{Correct: true, Attempted: len(p.ops), Failed: p.failed()}
	if p.succeeded() < minOps {
		return res, fmt.Errorf("only %d successful operations; percentiles need %d", p.succeeded(), minOps)
	}
	digest, err := in.check(p)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(e.log, "%s seed %d: %d ops (%d failed) in %d rounds of %.3f-%.3f s, output digest %s\n",
		w.name, e.seed, len(p.ops), p.failed(), len(roundS), minOf(roundS), maxOf(roundS), digest)
	res.Metrics = endToEnd(p, setupS, median(roundPeak))
	return res, nil
}

// endToEnd computes the metrics a user of the program sees. peak is
// the median over rounds of each round's largest live heap: every
// round does the same work, and the median of their peaks is steadier
// than the single largest.
func endToEnd(p *pass, setupS, peak float64) map[string]metric {
	var lat []float64
	var refs int64
	var alloc uint64
	for i := range p.ops {
		o := &p.ops[i]
		alloc += o.alloc
		if o.ok {
			lat = append(lat, o.ms)
			refs += o.refs
		}
	}
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"refs_per_s":      {float64(refs) / p.seconds(), "refs/s"},
		"op_p50_ms":       {quantile(lat, 0.5), "ms"},
		"op_p90_ms":       {quantile(lat, 0.9), "ms"},
		"alloc_b_per_ref": {float64(alloc) / float64(refs), "B/ref"},
		"peak_heap_mib":   {peak / (1 << 20), "MiB"},
	}
}

// quantile returns the q-quantile of xs by linear interpolation
// between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func minOf(xs []float64) float64 { return quantile(xs, 0) }

func maxOf(xs []float64) float64 { return quantile(xs, 1) }
