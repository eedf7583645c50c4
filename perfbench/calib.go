package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// The host-speed calibration. A shared host's speed drifts: over hours
// the same replay's CPU time moved by up to a factor of two, and by
// different factors on different code (dense Reed-Solomon decode slowed
// least, allocation- and map-heavy code most). So every run also times
// two fixed kernels that belong to the benchmark, not to the program,
// next to its replays, and divides its end-to-end times by the host's
// speed as the kernels matching the workload's hot path read it.
// A change to the program cannot move a kernel; a change in the host
// moves both.

// hostKernel names one calibration kernel.
type hostKernel int

const (
	// kernelGF evaluates the 32 Reed-Solomon syndromes of a dense 4 KiB
	// page with GF(2^8) log/exp tables, by Horner's rule: the shape of
	// the dense ECC decode that dominates phone-audit.
	kernelGF hostKernel = iota
	// kernelSort sorts 100 000 pseudo-random integers: branchy,
	// cache-resident work like the simulator's map, GC and allocator
	// paths.
	kernelSort
	numKernels
)

var kernelNames = [numKernels]string{"gf", "sort"}

// kernelRef is each kernel's time on the reference host, in ms. A
// normalised time is a host time scaled to the reference host:
// raw × kernelRef ÷ (the run's median kernel time). These constants
// define the unit and must not change.
var kernelRef = [numKernels]float64{6.0, 12.0}

// kernelSamples is how many times each kernel is timed next to each
// replay or fleet episode, and minKernelSamples the fewest a run takes.
const (
	kernelSamples    = 3
	minKernelSamples = 15
)

// hostSpeed collects a run's kernel timings.
type hostSpeed struct {
	page  []byte
	ints  []int
	work  []int
	times [numKernels][]float64 // ms
	// sink keeps the kernels' results live.
	sink uint64
}

var gfExp [512]byte
var gfLog [256]byte

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < len(gfExp); i++ {
		gfExp[i] = gfExp[i-255]
	}
}

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{page: make([]byte, 4096), ints: make([]int, 100_000), work: make([]int, 100_000)}
	x := uint64(0x5eed)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range h.page {
		h.page[i] = byte(next())
	}
	for i := range h.ints {
		h.ints[i] = int(next() >> 1)
	}
	for k := range h.times {
		h.times[k] = make([]float64, 0, 1024)
	}
	return h
}

// sample times each kernel kernelSamples times. The kernels allocate
// nothing, so the collector never runs inside them.
func (h *hostSpeed) sample() {
	settle()
	for i := 0; i < kernelSamples; i++ {
		t0 := cpuNow()
		for rep := 0; rep < 8; rep++ {
			h.sink += uint64(syndromes(h.page))
		}
		t1 := cpuNow()
		copy(h.work, h.ints)
		slices.Sort(h.work)
		t2 := cpuNow()
		h.sink += uint64(h.work[len(h.work)/2])
		h.times[kernelGF] = append(h.times[kernelGF], millis(t1-t0))
		h.times[kernelSort] = append(h.times[kernelSort], millis(t2-t1))
	}
}

// syndromes evaluates the 32 syndromes of each 255-byte codeword of
// page and folds them into one byte.
func syndromes(page []byte) byte {
	var acc byte
	for off := 0; off < len(page); off += 255 {
		cw := page[off:min(off+255, len(page))]
		for j := 1; j <= 32; j++ {
			var s byte
			for _, b := range cw {
				if s != 0 {
					s = gfExp[int(gfLog[s])+j]
				}
				s ^= b
			}
			acc ^= s
		}
	}
	return acc
}

// finish tops the run's samples up to minKernelSamples.
func (h *hostSpeed) finish() {
	for len(h.times[kernelGF]) < minKernelSamples {
		h.sample()
	}
}

// median returns the run's median time of kernel k, in ms.
func (h *hostSpeed) median(k hostKernel) float64 {
	return median(append([]float64(nil), h.times[k]...))
}

// scale returns the factor that turns a host time into a normalised
// one: for several kernels, the geometric mean of their factors.
func (h *hostSpeed) scale(ks ...hostKernel) float64 {
	f := 1.0
	for _, k := range ks {
		f *= kernelRef[k] / h.median(k)
	}
	return math.Pow(f, 1/float64(len(ks)))
}

// metrics returns the kernel medians as per-layer metrics.
func (h *hostSpeed) metrics() []metric {
	out := make([]metric, numKernels)
	for k := range out {
		out[k] = metric{"bench.host_" + kernelNames[k] + "_ms", "ms", h.median(hostKernel(k)), len(h.times[k])}
	}
	return out
}

// note describes the kernels for the run's notes.
func (h *hostSpeed) note(ks []hostKernel) string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = kernelNames[k]
	}
	return fmt.Sprintf("host speed: kernel gf %.4g ms, sort %.4g ms (reference %.4g, %.4g); replay times scaled by %s: x%.4f",
		h.median(kernelGF), h.median(kernelSort), kernelRef[kernelGF], kernelRef[kernelSort], strings.Join(names, "·"), h.scale(ks...))
}
