package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// Runtime metric names read around timed phases.
const (
	mAllocObjects = "/gc/heap/allocs:objects"
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mLiveHeap     = "/gc/heap/live:bytes"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
)

// runtimeSample is one read of the counters a meter differences.
type runtimeSample struct {
	wall           time.Time
	cpu            time.Duration // process user+sys
	objects, bytes uint64
	gcCycles       uint64
	gcCPU          float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{{Name: mAllocObjects}, {Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}}
	metrics.Read(s)
	return runtimeSample{
		wall:     time.Now(),
		cpu:      processCPU(),
		objects:  s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
	}
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: mLiveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// meter accumulates wall time, CPU, allocations and GC activity over
// the timed intervals between start and stop, so untimed output checks
// can run in between without being charged to the workload.
type meter struct {
	running atomic.Bool
	closed  atomic.Bool
	sampled atomic.Uint64 // max live heap marked by a GC cycle while running
	left    uint64        // max live heap left behind by a timed interval

	at                       runtimeSample
	wall, cpu                time.Duration
	objects, bytes, gcCycles uint64
	gcCPU                    float64
}

func newMeter() *meter {
	m := &meter{}
	m.armGC()
	return m
}

func (m *meter) start() {
	m.at = readRuntime()
	m.running.Store(true)
}

// stop ends a timed interval. It then forces one GC cycle, untimed, to
// read exactly the live heap the interval leaves behind.
func (m *meter) stop() {
	now := readRuntime()
	m.running.Store(false)
	runtime.GC()
	m.left = max(m.left, liveHeapBytes())
	m.wall += now.wall.Sub(m.at.wall)
	m.cpu += now.cpu - m.at.cpu
	m.objects += now.objects - m.at.objects
	m.bytes += now.bytes - m.at.bytes
	m.gcCycles += now.gcCycles - m.at.gcCycles
	m.gcCPU += now.gcCPU - m.at.gcCPU
}

func (m *meter) sampleHeap() {
	live := liveHeapBytes()
	for {
		old := m.sampled.Load()
		if live <= old || m.sampled.CompareAndSwap(old, live) {
			return
		}
	}
}

// gcWatch is re-armed by a finalizer once per GC cycle, so the live
// heap each cycle marked is read while the meter runs.
type gcWatch struct{ m *meter }

func (m *meter) armGC() {
	runtime.SetFinalizer(&gcWatch{m}, func(w *gcWatch) {
		if w.m.closed.Load() {
			return
		}
		if w.m.running.Load() {
			w.m.sampleHeap()
		}
		w.m.armGC()
	})
}

// close stops the GC watch at the next cycle.
func (m *meter) close() { m.closed.Store(true) }

// tailPercentile is the highest percentile, capped at 95, that has at
// least ten samples beyond it; with fewer than twenty samples no
// percentile above the median qualifies and the median is used.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	p := 100 * (1 - 10/float64(n))
	return math.Min(95, p)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (xs need not be sorted).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }
