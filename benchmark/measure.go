package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"mlaasbench/internal/linalg"
	"mlaasbench/internal/telemetry"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler samples HeapInuse (heap objects plus the unused bytes of
// in-use spans) and keeps the peak of each window.
type heapSampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	peaks []float64 // per window, bytes; owned by the sampling goroutine until done
}

func startHeapSampler(every, window time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() float64 {
		metrics.Read(samples)
		return float64(samples[0].Value.Uint64() + samples[1].Value.Uint64())
	}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		peak, end := read(), time.Now().Add(window)
		for {
			select {
			case <-h.stop:
				h.peaks = append(h.peaks, math.Max(peak, read()))
				return
			case now := <-t.C:
				peak = math.Max(peak, read())
				if now.After(end) {
					h.peaks = append(h.peaks, peak)
					peak, end = 0, now.Add(window)
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns each window's peak in MB.
func (h *heapSampler) Stop() []float64 {
	close(h.stop)
	h.done.Wait()
	out := make([]float64, len(h.peaks))
	for i, p := range h.peaks {
		out[i] = p / (1 << 20)
	}
	return out
}

// kernelClock accumulates linalg kernel time per kernel through the
// program's public kernel hook, installed only for traced runs.
type kernelClock struct {
	mu  sync.Mutex
	sum map[string]float64
}

func newKernelClock() *kernelClock { return &kernelClock{sum: map[string]float64{}} }

// install points the process-wide kernel hook at k.
func (k *kernelClock) install() {
	linalg.SetKernelHook(func(kernel string, seconds float64) {
		k.mu.Lock()
		k.sum[kernel] += seconds
		k.mu.Unlock()
	})
}

func (k *kernelClock) seconds(kernel string) float64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.sum[kernel]
}

func (k *kernelClock) uninstall() {
	if k != nil {
		linalg.SetKernelHook(nil)
	}
}

// counterSum adds counter `name` across registries.
func counterSum(regs []*telemetry.Registry, name string) float64 {
	s := int64(0)
	for _, r := range regs {
		s += r.SumCounters(name)
	}
	return float64(s)
}

// stageSeconds adds the pipeline stage histogram's sum across registries.
func stageSeconds(regs []*telemetry.Registry, stage string) float64 {
	s := 0.0
	for _, r := range regs {
		s += r.Histogram(telemetry.StageHistogram, "stage", stage).Sum()
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// workers is the load generator's connection count: one per CPU the
// process may use, never more than the host has.
func workers() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); n > c {
		n = c
	}
	return n
}
