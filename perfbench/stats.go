package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; xs is sorted in place. An empty
// sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow reads the host clock every measurement uses: the process's CPU
// time, summed over its threads. Timed sections are single-threaded and
// main sets GOMAXPROCS to 1, so on an idle machine a section's CPU time
// is its wall time; on a shared host it leaves out the time the
// hypervisor gave other tenants (steal), which moved wall-clock replays
// by up to a factor of two over an hour on a 2-vCPU guest.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", e))
	}
	return time.Duration(ts.Nano())
}

// settle collects the garbage earlier sections left, so a timed section
// neither pays for it nor inherits its collector pacing (as testing.B
// does before each benchmark).
func settle() { runtime.GC() }

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// span is one timed call across a layer boundary. Req groups the spans
// of one request (a workload event, an HTTP request). Times are
// nanoseconds since the tracer's origin on the CPU clock.
type span struct {
	ID    int64  `json:"id"`
	Req   int64  `json:"req"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

// maxSpans bounds the spans a traced run keeps for its span file; the
// per-layer aggregates cover every call regardless.
const maxSpans = 200_000

// tracer records spans in memory and aggregates their durations by
// name. A nil *tracer records nothing and costs one nil check per call,
// which is how untraced runs stay untimed below the episode level.
type tracer struct {
	origin time.Duration

	mu      sync.Mutex
	nextID  int64
	spans   []span
	dropped int64
	durs    map[string][]float64 // microseconds, by span name
}

func newTracer() *tracer {
	return &tracer{origin: cpuNow(), durs: make(map[string][]float64)}
}

// begin returns the start stamp for a span.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return int64(cpuNow() - t.origin)
}

// end closes a span opened with begin.
func (t *tracer) end(name string, req, start int64) {
	if t == nil {
		return
	}
	dur := int64(cpuNow()-t.origin) - start
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: t.nextID, Req: req, Name: name, Start: start, Dur: dur})
	} else {
		t.dropped++
	}
	t.durs[name] = append(t.durs[name], float64(dur)/1e3)
}

// durations returns the recorded durations (µs) of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.durs[name]...)
}

// writeFile writes the kept spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) writeSpans(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// heapSampler tracks the peak of the runtime's live-heap metric over
// timed sections. The metric is refreshed at the end of every GC cycle,
// so a 10 ms poll sees every value it takes.
type heapSampler struct {
	mu   sync.Mutex
	on   bool
	peak uint64

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

const heapLiveMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.mu.Lock()
				if h.on {
					h.sampleLocked()
				}
				h.mu.Unlock()
			}
		}
	}()
	return h
}

func (h *heapSampler) sampleLocked() {
	s := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.peak {
		h.peak = s[0].Value.Uint64()
	}
}

// begin starts a timed section.
func (h *heapSampler) begin() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.on, h.peak = true, 0
	h.sampleLocked()
}

// end closes the timed section and returns its peak in MB.
func (h *heapSampler) end() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sampleLocked()
	h.on = false
	return float64(h.peak) / 1e6
}

// close stops the sampler goroutine. It may be called more than once.
func (h *heapSampler) close() {
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}

// rtCounters is a reading of the runtime counters behind the runtime.*
// per-layer metrics.
type rtCounters struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtCounters{allocBytes: u(0), gcCycles: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// rtUsage accumulates runtime counter deltas over timed sections.
type rtUsage struct {
	sections int
	rtCounters
}

func (u *rtUsage) add(before, after rtCounters) {
	u.sections++
	u.allocBytes += after.allocBytes - before.allocBytes
	u.gcCycles += after.gcCycles - before.gcCycles
	u.gcCPU += after.gcCPU - before.gcCPU
	u.totalCPU += after.totalCPU - before.totalCPU
}

// layerMetrics returns the runtime.* per-layer metrics, per section.
func (u *rtUsage) layerMetrics() []metric {
	n := float64(u.sections)
	return []metric{
		{"runtime.alloc_mb", "MB", ratio(float64(u.allocBytes)/1e6, n), u.sections},
		{"runtime.gc_cycles", "count", ratio(float64(u.gcCycles), n), u.sections},
		{"runtime.gc_cpu_frac", "frac", ratio(u.gcCPU, u.totalCPU), u.sections},
	}
}

// metric is one reported number. N is the sample count behind it (for
// a count, the episodes it was read from).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

func (m metric) String() string {
	return fmt.Sprintf("  %-32s %-14.6g %-6s n=%d", m.Name, m.Value, m.Unit, m.N)
}
