package main

import (
	"bytes"
	"math"
	"time"

	"sos"
)

// scrapeInterval is the open-loop scrape schedule on every workload:
// one scrape due every 10 ms of CPU time, alternating a metrics
// exposition and a report. A 10 s run therefore times ~1000 scrapes,
// which leaves at least ten samples beyond the p99.
const scrapeInterval = 10 * time.Millisecond

// scrapePhase is the offset of the scrape schedule within one interval
// for the k-th replay of a run: the first scrape falls due that long
// after the replay's timed section starts. The run seed sets the first
// offset; each later replay moves on by the golden ratio of an
// interval, so a run's replays sample the alignment of scrapes to the
// workload's long calls evenly and the latency tail does not hinge on
// one alignment.
func scrapePhase(seed uint64, k int) time.Duration {
	x := seed + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	frac := float64(x%1e9)/1e9 + 0.6180339887498949*float64(k)
	return time.Duration((frac - math.Floor(frac)) * float64(scrapeInterval))
}

// nextPhase returns the scrape phase for the run's next replay.
func (b *bench) nextPhase() time.Duration {
	p := scrapePhase(b.seed, b.phases)
	b.phases++
	return p
}

func (b *bench) newInbandScraper(sys *sos.System) *inbandScraper {
	return &inbandScraper{sys: sys, phase: b.nextPhase()}
}

// scrapeStats collects open-loop scrape timings. Latency runs from the
// due time to the last byte, lag from the due time to the send, and
// service from the send to the last byte (all ms).
type scrapeStats struct {
	latency, lag   []float64
	metricsService []float64
	reportService  []float64
	// backlog counts scrapes served after the workload's last operation
	// completed: the queue a stall left behind.
	backlog int
	failed  int
}

func (s *scrapeStats) merge(o scrapeStats) {
	s.latency = append(s.latency, o.latency...)
	s.lag = append(s.lag, o.lag...)
	s.metricsService = append(s.metricsService, o.metricsService...)
	s.reportService = append(s.reportService, o.reportService...)
	s.backlog += o.backlog
	s.failed += o.failed
}

// record adds one scrape; due, sent, and done are CPU-clock stamps.
func (s *scrapeStats) record(kind int, due, sent, done time.Duration) {
	s.latency = append(s.latency, millis(done-due))
	s.lag = append(s.lag, millis(sent-due))
	if kind == 0 {
		s.metricsService = append(s.metricsService, millis(done-sent))
	} else {
		s.reportService = append(s.reportService, millis(done-sent))
	}
}

// inbandScraper is the phone workloads' scrape client. A System is
// single-threaded, so a scrape due while an engine call runs is served
// at the next event boundary: the wait a real collector polling the
// device would see. Even-numbered scrapes render the Prometheus
// exposition, odd ones the Snapshot JSON report.
type inbandScraper struct {
	sys   *sos.System
	phase time.Duration
	next  time.Duration
	n     int
	buf   bytes.Buffer
	// busy is the host time spent rendering, which replays leave out of
	// their own times.
	busy time.Duration
	scrapeStats
}

func (s *inbandScraper) begin(start time.Duration) {
	s.next = start + s.phase
}

// poll serves every scrape due by now.
func (s *inbandScraper) poll() {
	now := cpuNow()
	for now >= s.next {
		due := s.next
		kind := s.n % 2
		s.buf.Reset()
		var err error
		if kind == 0 {
			_, err = s.sys.Snapshot().WritePrometheus(&s.buf)
		} else {
			err = s.sys.Snapshot().WriteJSON(&s.buf)
		}
		done := cpuNow()
		if err != nil {
			s.failed++
		}
		s.busy += done - now
		s.record(kind, due, now, done)
		s.n++
		s.next = due + scrapeInterval
		now = done
	}
}

// finish drains the scrapes that fell due before the last event ended.
func (s *inbandScraper) finish() {
	before := s.n
	s.poll()
	s.backlog += s.n - before
}
