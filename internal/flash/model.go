package flash

import (
	"math"

	"sos/internal/sim"
)

// EOLRBER is the end-of-life raw bit error rate: the point where the
// strongest practical page ECC (t=16 RS/BCH class) starts failing. Rated
// endurance is defined as the cycle count at which a block's RBER (with
// one year of retention) reaches this threshold.
const EOLRBER = 1e-3

// ErrorModel computes the raw bit error rate of a page as a function of
// the block's operating mode, accumulated wear, time since the page was
// programmed (retention), and reads since programming (read disturb).
//
// The functional form follows the shape reported in flash
// characterization literature (Grupp et al. FAST'12, Cai et al.):
//
//	RBER = fresh * (EOL/fresh)^(pec/rated)            wear term
//	     + fresh * RetCoef * years * (1 + pec/rated)^2  retention term
//	     + fresh * ReadCoef * reads                     read disturb term
//
// The wear term interpolates exponentially between the pristine error
// rate and EOL at rated endurance. Retention errors grow linearly in
// time and quadratically with wear (worn oxide leaks faster). Read
// disturb is linear in reads with a small coefficient.
type ErrorModel struct {
	// RetCoef scales retention errors: at RetCoef=40, a pristine block
	// gains ~40x its fresh RBER per year; near end of life the
	// quadratic wear factor makes one-year retention cost roughly half
	// the ECC budget on PLC — matching the "retention dominates for
	// cold data" behaviour SOS exploits without collapsing endurance.
	RetCoef float64
	// ReadCoef scales read disturb: fresh RBER per read. 2e-4 means
	// ~100K reads add ~20x fresh RBER, the order reported for TLC.
	ReadCoef float64
}

// DefaultErrorModel returns the calibrated model used across experiments.
func DefaultErrorModel() ErrorModel {
	return ErrorModel{RetCoef: 40, ReadCoef: 2e-4}
}

// RBER returns the raw bit error rate for a page in mode m on a block
// with pec program/erase cycles, read `reads` times, `retention` after
// being programmed. enduranceScale models block-to-block manufacturing
// variance (1.0 = nominal; <1 wears faster).
func (em ErrorModel) RBER(m Mode, pec int, retention sim.Time, reads int, enduranceScale float64) float64 {
	return em.pageRBER(wearOf(m, pec, enduranceScale), retention, reads)
}

// wear is the block-level part of RBER: the mode's fresh rate, the wear
// fraction pec/(rated·scale) and the wear term fresh·(EOL/fresh)^frac.
// It changes only when the block is erased or switches mode, so the chip
// caches one per block instead of paying math.Pow on every read.
type wear struct {
	fresh, frac, term float64
}

// wearOf computes the block-level part of RBER; an enduranceScale <= 0
// means nominal.
func wearOf(m Mode, pec int, enduranceScale float64) wear {
	if enduranceScale <= 0 {
		enduranceScale = 1
	}
	fresh := m.freshRBER()
	frac := float64(pec) / (float64(m.RatedPEC()) * enduranceScale)
	// The conversion rounds the product here, so no platform may fuse it
	// into pageRBER's sum: a cached term and a fresh one add identically.
	return wear{fresh: fresh, frac: frac, term: float64(fresh * math.Pow(EOLRBER/fresh, frac))}
}

// pageRBER adds a page's retention and read-disturb terms to its block's
// wear term, in RBER's order, and caps the sum.
func (em ErrorModel) pageRBER(w wear, retention sim.Time, reads int) float64 {
	years := retention.Years()
	if years < 0 {
		years = 0
	}
	retTerm := w.fresh * em.RetCoef * years * (1 + w.frac) * (1 + w.frac)
	readTerm := w.fresh * em.ReadCoef * float64(reads)
	rber := w.term + retTerm + readTerm
	if rber > 0.5 {
		rber = 0.5 // beyond this, bits are noise
	}
	return rber
}

// FailureProb returns the probability that a program or erase operation
// reports a hard status failure at the given wear. Below rated
// endurance failures are negligible; beyond it they ramp quadratically,
// reaching ~0.5% per operation at 1.5x rated and 2% at 2x. A block that
// keeps cycling past its rating therefore dies of a status failure
// within a few hundred operations — but a policy that resuscitates or
// retires at ~1.1-1.2x usually acts first, as real controllers do.
func (em ErrorModel) FailureProb(m Mode, pec int, enduranceScale float64) float64 {
	if enduranceScale <= 0 {
		enduranceScale = 1
	}
	wear := float64(pec) / (float64(m.RatedPEC()) * enduranceScale)
	if wear <= 1 {
		return 0
	}
	over := wear - 1
	p := 0.02 * over * over
	if p > 0.5 {
		p = 0.5
	}
	return p
}

// EnduranceAt returns the cycle count at which RBER (with the given
// retention) crosses the EOL threshold — the model's emergent endurance.
// Used by experiment E2 to confirm the §2.2 ladder.
func (em ErrorModel) EnduranceAt(m Mode, retention sim.Time) int {
	lo, hi := 0, 40*m.RatedPEC()
	for lo < hi {
		mid := (lo + hi) / 2
		if em.RBER(m, mid, retention, 0, 1) >= EOLRBER {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
