// Package device assembles a chip and an FTL into a personal storage
// device with the SOS partition scheme: a SYS partition on pseudo-QLC
// blocks with strong ECC and wear leveling, and a SPARE partition on
// native-density blocks with approximate storage and wear leveling
// disabled (§4.2-§4.3). It also provides the non-SOS baseline builds
// (pure TLC / pure QLC devices) the experiments compare against, and a
// latency model for E12.
package device

import (
	"sos/internal/flash"
	"sos/internal/sim"
)

// Op is a device operation class for the latency model.
type Op int

// Operation classes.
const (
	OpRead Op = iota
	OpProgram
	OpErase
)

// LatencyProfile returns base operation latencies per operating density.
// Values follow datasheet-class numbers: reads and programs slow down
// with bits per cell, erase is density-insensitive. A pseudo-mode runs
// at the speed of its operating density (programming fewer levels is
// what costs time), which is why pseudo-QLC SYS on PLC silicon is not
// PLC-slow.
type LatencyProfile struct {
	// ReadBase[bits-1] is tR for 1..5 bits/cell.
	ReadBase [5]sim.Time
	// ProgBase[bits-1] is tProg.
	ProgBase [5]sim.Time
	// EraseBase is tBERS.
	EraseBase sim.Time
	// RetryStep is the extra cost of one read-retry (re-read with
	// shifted reference voltage). Error-tolerant (approximate) reads
	// skip retries entirely — the E12 effect.
	RetryStep sim.Time
}

// DefaultLatencyProfile returns datasheet-shaped latencies.
func DefaultLatencyProfile() LatencyProfile {
	return LatencyProfile{
		ReadBase: [5]sim.Time{
			25 * sim.Microsecond,  // SLC
			55 * sim.Microsecond,  // MLC
			75 * sim.Microsecond,  // TLC
			140 * sim.Microsecond, // QLC
			220 * sim.Microsecond, // PLC
		},
		ProgBase: [5]sim.Time{
			250 * sim.Microsecond,  // SLC
			650 * sim.Microsecond,  // MLC
			950 * sim.Microsecond,  // TLC
			2600 * sim.Microsecond, // QLC
			5200 * sim.Microsecond, // PLC
		},
		EraseBase: 5 * sim.Millisecond,
		RetryStep: 70 * sim.Microsecond,
	}
}

// base returns the base latency of op in the given mode.
func (p LatencyProfile) base(m flash.Mode, op Op) sim.Time {
	idx := m.OpBits - 1
	if idx < 0 {
		idx = 0
	}
	if idx > 4 {
		idx = 4
	}
	switch op {
	case OpRead:
		return p.ReadBase[idx]
	case OpProgram:
		return p.ProgBase[idx]
	default:
		return p.EraseBase
	}
}

// readRetries models the controller's read-retry ladder: as the raw bit
// error rate climbs toward the ECC limit, ECC-protected reads need
// progressively more reference-voltage retries. Approximate reads
// (tolerant=true) never retry — degraded bits are acceptable.
func readRetries(rber float64, tolerant bool) int {
	if tolerant {
		return 0
	}
	switch {
	case rber < flash.EOLRBER/16:
		return 0
	case rber < flash.EOLRBER/4:
		return 1
	case rber < flash.EOLRBER/2:
		return 2
	case rber < flash.EOLRBER:
		return 4
	default:
		return 8
	}
}

// ReadLatency returns the modelled latency of one page read in mode m at
// the given raw bit error rate.
func (p LatencyProfile) ReadLatency(m flash.Mode, rber float64, tolerant bool) sim.Time {
	return p.base(m, OpRead) + sim.Time(readRetries(rber, tolerant))*p.RetryStep
}

// ProgramLatency returns the modelled latency of one page program.
func (p LatencyProfile) ProgramLatency(m flash.Mode) sim.Time {
	return p.base(m, OpProgram)
}
