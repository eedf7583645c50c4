package main

import (
	"errors"
	"fmt"
	"time"

	"sos"
	"sos/internal/core"
	"sos/internal/fs"
	"sos/internal/sim"
	"sos/internal/workload"
)

// Span names for the calls into core.Engine.
const (
	spanTick   = "core.tick"
	spanCreate = "core.create"
	spanUpdate = "core.update"
	spanRead   = "core.read"
	spanDelete = "core.delete"
)

// replayTrace is a workload materialized before timing starts: the
// events, plus the payload bytes of every create when the workload
// carries real data (real; nil entries otherwise).
type replayTrace struct {
	days     int
	events   []workload.Event
	payloads [][]byte
	real     bool
}

// replayResult is what one replay of a trace did.
type replayResult struct {
	// total is the trace's event count: every event is attempted.
	total                    int
	events, skipped, noSpace int
	// failed counts the events from the first untolerated engine error
	// to the end of the trace; err is that error.
	failed int
	err    error
	// pagesRead and pagesWritten are the logical pages moved by read
	// and create/update calls (the per-page cost denominators; traced
	// replays only).
	pagesRead, pagesWritten int64
	// dayTimes holds the host time of each simulated day's step: the
	// events stamped with that day plus the ticks before them.
	dayTimes []time.Duration
	// dailyTicks holds the duration (µs) of the first tick of each
	// simulated day — the one that runs the daily review, the weekly
	// scrub, and the audit pass (traced replays only).
	dailyTicks []float64
	// elapsed is the replay's host time. Neither elapsed nor dayTimes
	// counts the time in-band scrapes spent rendering.
	elapsed time.Duration
}

// dayClock splits a replay's host time into simulated days, leaving out
// the time in-band scrapes spend rendering between events.
type dayClock struct {
	sc       *inbandScraper
	start    time.Duration
	dayStart time.Duration
	day      int64
	times    []time.Duration
}

func newDayClock(sc *inbandScraper) *dayClock {
	now := cpuNow()
	if sc != nil {
		sc.begin(now)
	}
	return &dayClock{sc: sc, start: now, dayStart: now, day: -1}
}

// scrapeBusy is the render time the in-band scrapes have used so far.
func (c *dayClock) scrapeBusy() time.Duration {
	if c.sc == nil {
		return 0
	}
	return c.sc.busy
}

// event is called before each event: it closes the previous simulated
// day when ev starts a new one, serves the scrapes due by now, and
// reports whether ev is the first event of its day.
func (c *dayClock) event(ev workload.Event) bool {
	first := false
	if d := int64(ev.At / sim.Day); d != c.day {
		if c.day >= 0 {
			c.closeDay()
		}
		c.day, first = d, true
	}
	if c.sc != nil {
		c.sc.poll()
	}
	return first
}

func (c *dayClock) closeDay() {
	now := cpuNow() - c.scrapeBusy()
	c.times = append(c.times, now-c.dayStart)
	c.dayStart = now
}

// finish closes the last day, drains the scrapes that fell due before
// the last event ended, and fills in res's times.
func (c *dayClock) finish(res *replayResult) {
	if c.day >= 0 {
		c.closeDay()
	}
	end := cpuNow() - c.scrapeBusy()
	if c.sc != nil {
		c.sc.finish()
	}
	res.dayTimes = c.times
	res.elapsed = end - c.start
}

// traceGenerator replays a trace through System.Run: it hands out the
// events in order, supplies each create's payload, and drives a
// dayClock between events.
type traceGenerator struct {
	tr    *replayTrace
	clock *dayClock
	next  int
}

func (g *traceGenerator) Next() (workload.Event, bool) {
	if g.next == len(g.tr.events) {
		return workload.Event{}, false
	}
	ev := g.tr.events[g.next]
	g.next++
	g.clock.event(ev)
	return ev, true
}

// payloadFor returns the payload of the event Next handed out last.
func (g *traceGenerator) payloadFor(workload.Event) []byte { return g.tr.payloads[g.next-1] }

// timedReplay drives sys through tr with System.Run — the loop sossim
// -sim runs — with sc, when set, serving due in-band scrapes between
// events. It is the replay every untraced run times.
func timedReplay(sys *sos.System, tr *replayTrace, sc *inbandScraper) replayResult {
	g := &traceGenerator{tr: tr}
	rc := core.RunConfig{}
	if tr.real {
		rc.PayloadFor = g.payloadFor
	}
	g.clock = newDayClock(sc)
	rep, err := sys.Run(g, rc)
	res := replayResult{total: len(tr.events)}
	g.clock.finish(&res)
	if rep != nil {
		res.events, res.skipped, res.noSpace = rep.Events, rep.SkippedReads, rep.NoSpace
	}
	if err != nil {
		// core.Run stops at the failing event, the last one handed out.
		res.failed = len(tr.events) - (g.next - 1)
		res.err = err
	}
	return res
}

// tracedReplay drives sys through tr exactly as core.Run does — the
// same tick before every event, the same calls, the same tolerated
// errors — so its simulated outcome is System.Run's, and records a span
// around each engine call (t nil = untraced, the traced runs' overhead
// baseline). sc, when set, serves due in-band scrapes between events.
func tracedReplay(sys *sos.System, tr *replayTrace, t *tracer, sc *inbandScraper) replayResult {
	res := replayResult{total: len(tr.events)}
	eng := sys.Engine
	clock := sys.Clock
	pageSize := int64(sys.Device.PageSize())
	pages := func(size int64) int64 { return (size + pageSize - 1) / pageSize }
	idMap := make(map[int64]fs.FileID)

	dc := newDayClock(sc)
	fail := func(i int, err error) {
		res.failed = len(tr.events) - i
		res.err = err
	}
	for i, ev := range tr.events {
		req := int64(i)
		firstOfDay := dc.event(ev)
		if ev.At > clock.Now() {
			clock.SetNow(ev.At)
		}
		t0 := t.begin()
		err := eng.Tick()
		t.end(spanTick, req, t0)
		if t != nil && firstOfDay {
			res.dailyTicks = append(res.dailyTicks, float64(t.begin()-t0)/1e3)
		}
		if err != nil {
			fail(i, fmt.Errorf("tick at %v: %w", clock.Now(), err))
			break
		}
		res.events++

		switch ev.Kind {
		case workload.EvCreate:
			t0 := t.begin()
			id, err := eng.CreateFile(ev.Meta, tr.payloads[i], ev.Size, ev.TrueLabel)
			t.end(spanCreate, req, t0)
			switch {
			case errors.Is(err, fs.ErrNoSpace):
				res.noSpace++
			case errors.Is(err, fs.ErrExists):
				// Name collision across generator categories: skipped,
				// as core.Run does.
			case err != nil:
				fail(i, fmt.Errorf("create %q: %w", ev.Meta.Path, err))
			default:
				idMap[ev.FileID] = id
				res.pagesWritten += pages(ev.Size)
			}
		case workload.EvUpdate:
			id, ok := idMap[ev.FileID]
			if !ok {
				res.skipped++
				continue
			}
			t0 := t.begin()
			err := eng.UpdateFile(id, nil, ev.Size)
			t.end(spanUpdate, req, t0)
			switch {
			case errors.Is(err, fs.ErrNoSpace):
				res.noSpace++
			case errors.Is(err, core.ErrNotTracked):
				res.skipped++
			case err != nil:
				fail(i, fmt.Errorf("update %d: %w", id, err))
			default:
				res.pagesWritten += pages(ev.Size)
			}
		case workload.EvRead:
			id, ok := idMap[ev.FileID]
			if !ok {
				res.skipped++
				continue
			}
			t0 := t.begin()
			rr, err := eng.ReadFileBatch(id)
			t.end(spanRead, req, t0)
			switch {
			case errors.Is(err, core.ErrNotTracked) || errors.Is(err, fs.ErrNotFound):
				res.skipped++
			case err != nil:
				fail(i, fmt.Errorf("read %d: %w", id, err))
			default:
				res.pagesRead += int64(rr.Pages)
			}
		case workload.EvDelete:
			id, ok := idMap[ev.FileID]
			if !ok {
				res.skipped++
				continue
			}
			t0 := t.begin()
			err := eng.DeleteFile(id)
			t.end(spanDelete, req, t0)
			if err != nil && !errors.Is(err, core.ErrNotTracked) {
				fail(i, fmt.Errorf("delete %d: %w", id, err))
			}
			delete(idMap, ev.FileID)
		}
		if res.err != nil {
			break
		}
	}
	dc.finish(&res)
	return res
}
