// Package fault provides a deterministic, seeded fault-injection
// interposer for the flash stack. An Injector wraps any storage.Flash
// (such as *flash.Chip) and presents the same interface, so the
// backends, device layer, and experiments run unmodified against real
// or fault-wrapped media.
//
// Faults are reproducible from a sim.RNG seed and come in four shapes:
//
//   - op-indexed windows: every read/program/erase whose global op index
//     falls inside a window fails (transient bursts, fail storms);
//   - probabilistic rules: each op fails with a configured probability,
//     drawn from the plan's seeded RNG;
//   - block ranges: all ops touching a block range fail hard (a dead
//     die/plane region);
//   - a power cut: the op with index N (and every op after it) fails
//     with ErrPowerCut until Restore is called — the crash-consistency
//     trigger. A torn cut lets op N reach the medium before power dies,
//     modelling an unacknowledged write that persists.
//
// Injected program/erase faults wrap flash.ErrProgramFail and
// flash.ErrEraseFail so the FTL's existing absorption logic (block
// sealing, retirement) handles them unchanged; injected read faults wrap
// flash.ErrReadFault, which the relocation and device retry ladders key
// off. With a zero-value Plan the Injector is byte-transparent: it
// delegates every call, draws nothing from any RNG, and perturbs no
// downstream determinism.
//
// The injector also carries the plane-run surface of storage.Flash, so
// backends take their batched read, write, and GC paths under fault
// injection. Two properties keep fault accounting exact and
// deterministic:
//
//   - every run op passes through the full fault schedule one page at a
//     time, in run order, so op-indexed windows and the power-cut
//     trigger land mid-run exactly as they would mid-loop (a torn cut
//     still persists only the dying op);
//   - the injector reports a single plane, which collapses every batched
//     consumer's plane fan-out to one canonical-order run per phase —
//     medium access stays on one goroutine at every worker count, so the
//     global op counter (the cut-index space) is schedule-independent.
package fault

import (
	"errors"
	"fmt"

	"sos/internal/flash"
	"sos/internal/sim"
	"sos/internal/storage"
)

// ErrPowerCut reports that the simulated medium lost power: the op (and
// all ops after it) never completed. Recovery is host-side: Restore the
// injector, then rebuild the FTL over the surviving state.
var ErrPowerCut = errors.New("fault: power lost")

// The injector is drop-in flash for either backend.
var _ storage.Flash = (*Injector)(nil)

// Window is a half-open op-index interval [From, To) over the
// injector's global op counter (1-based: the first read/program/erase
// is op 1). The zero value is disabled.
type Window struct {
	From, To int64
}

// contains reports whether idx falls inside the window.
func (w Window) contains(idx int64) bool { return w.From < w.To && idx >= w.From && idx < w.To }

// BlockRange is a half-open block-id interval [From, To) that has
// failed hard — a dead die or plane region. Every op addressing it
// fails deterministically.
type BlockRange struct {
	From, To int
}

func (r BlockRange) contains(b int) bool { return r.From < r.To && b >= r.From && b < r.To }

// Plan is a deterministic fault schedule. The zero value injects
// nothing and makes the Injector byte-transparent.
type Plan struct {
	// Seed feeds the probabilistic rules' RNG. Plans that only use
	// op-indexed windows, block ranges, or the power cut never draw.
	Seed uint64

	// ReadFaultProb fails each read with this probability (transient:
	// an immediate retry redraws). ReadFaultWindow fails every read in
	// the op-index window.
	ReadFaultProb   float64
	ReadFaultWindow Window

	// ProgramFailProb / ProgramFailWindow inject program-status
	// failures (wrapping flash.ErrProgramFail): the page stays
	// unwritten and the FTL seals the block.
	ProgramFailProb   float64
	ProgramFailWindow Window

	// EraseFailProb / EraseFailWindow inject erase-status failures
	// (wrapping flash.ErrEraseFail): the FTL retires the block.
	EraseFailProb   float64
	EraseFailWindow Window

	// BadBlocks are dead regions: reads fail with flash.ErrReadFault,
	// programs with flash.ErrProgramFail, erases with
	// flash.ErrEraseFail — all deterministic.
	BadBlocks []BlockRange

	// PowerCutAtOp, when > 0, cuts power at exactly that op index: the
	// op fails with ErrPowerCut and the medium stays dead until
	// Restore. TornCut lets the cut op reach the medium first (a
	// persisted-but-unacknowledged write or erase).
	PowerCutAtOp int64
	TornCut      bool
}

// probabilistic reports whether the plan ever needs an RNG.
func (p *Plan) probabilistic() bool {
	return p.ReadFaultProb > 0 || p.ProgramFailProb > 0 || p.EraseFailProb > 0
}

// Stats counts what the injector did.
type Stats struct {
	// Ops is the number of read/program/erase ops observed (including
	// faulted ones).
	Ops int64
	// InjectedReadFaults / InjectedProgramFails / InjectedEraseFails
	// count faults injected by windows, probabilities, and bad blocks.
	InjectedReadFaults   int64
	InjectedProgramFails int64
	InjectedEraseFails   int64
	// PowerCuts counts power-cut triggers (at most one per Restore).
	PowerCuts int64
	// OpsRejectedDown counts ops refused because power was off.
	OpsRejectedDown int64
}

// Injected returns the total number of injected faults (excluding
// power-cut rejections).
func (s Stats) Injected() int64 {
	return s.InjectedReadFaults + s.InjectedProgramFails + s.InjectedEraseFails
}

// Injector wraps a storage.Flash and injects faults per its Plan. It is
// not safe for concurrent use; its single-plane report is what keeps
// batched consumers from ever calling it concurrently.
type Injector struct {
	inner storage.Flash
	plan  Plan
	rng   *sim.RNG // nil until a probabilistic rule needs it
	ops   int64
	down  bool
	stats Stats
	ret   [1][]byte // ProgramRunTagged's buffer-return scratch
}

// New wraps inner with a fault plan. A zero-value plan is transparent.
func New(inner storage.Flash, plan Plan) *Injector {
	i := &Injector{inner: inner}
	i.install(plan)
	return i
}

func (i *Injector) install(plan Plan) {
	i.plan = plan
	i.rng = nil
	if plan.probabilistic() {
		i.rng = sim.NewRNG(plan.Seed)
	}
}

// SetPlan replaces the fault plan (reseeding the probabilistic RNG) and
// clears any power-down state. The op counter keeps running, so
// op-indexed rules in the new plan address the same global timeline.
func (i *Injector) SetPlan(plan Plan) {
	i.install(plan)
	i.down = false
}

// Restore reattaches power after a cut: the consumed power-cut trigger
// is cleared, every other rule stays armed (fault storms persist across
// reboots). It is a no-op when power is on.
func (i *Injector) Restore() {
	i.down = false
	i.plan.PowerCutAtOp = 0
}

// Down reports whether the medium is currently without power.
func (i *Injector) Down() bool { return i.down }

// Ops returns the global op index of the last read/program/erase.
func (i *Injector) Ops() int64 { return i.ops }

// FaultStats returns the injector's own counters. (Stats, from the
// storage.Flash interface, forwards the wrapped chip's telemetry.)
func (i *Injector) FaultStats() Stats { return i.stats }

// errDown is the failure every op sees while power is off.
func (i *Injector) errDown() error {
	i.stats.OpsRejectedDown++
	return fmt.Errorf("fault: op on dead medium (cut at op %d): %w", i.ops, ErrPowerCut)
}

// beginOp advances the op counter and evaluates the power-cut trigger.
// It returns (idx, cut): when cut is true the caller must fail with the
// returned error after optionally applying a torn op.
func (i *Injector) beginOp() (idx int64, cutErr error) {
	i.ops++
	i.stats.Ops++
	if i.plan.PowerCutAtOp > 0 && i.ops >= i.plan.PowerCutAtOp {
		i.down = true
		i.stats.PowerCuts++
		return i.ops, fmt.Errorf("fault: power cut at op %d: %w", i.ops, ErrPowerCut)
	}
	return i.ops, nil
}

// badBlock reports whether b lies in a dead region.
func (i *Injector) badBlock(b int) bool {
	for _, r := range i.plan.BadBlocks {
		if r.contains(b) {
			return true
		}
	}
	return false
}

// draw evaluates a probabilistic rule.
func (i *Injector) draw(p float64) bool {
	if p <= 0 || i.rng == nil {
		return false
	}
	return i.rng.Bool(p)
}

// Read implements storage.Flash.
func (i *Injector) Read(b, page int) (flash.ReadResult, error) {
	if i.down {
		return flash.ReadResult{}, i.errDown()
	}
	idx, cutErr := i.beginOp()
	if cutErr != nil {
		return flash.ReadResult{}, cutErr // a torn read has no medium effect
	}
	if i.badBlock(b) {
		i.stats.InjectedReadFaults++
		return flash.ReadResult{}, fmt.Errorf("fault: read %d/%d in dead region: %w", b, page, flash.ErrReadFault)
	}
	if i.plan.ReadFaultWindow.contains(idx) || i.draw(i.plan.ReadFaultProb) {
		i.stats.InjectedReadFaults++
		return flash.ReadResult{}, fmt.Errorf("fault: injected read fault at op %d: %w", idx, flash.ErrReadFault)
	}
	return i.inner.Read(b, page)
}

// ProgramTagged implements storage.Flash.
func (i *Injector) ProgramTagged(b, page int, data []byte, dataLen int, tag flash.PageTag) error {
	if i.down {
		return i.errDown()
	}
	idx, cutErr := i.beginOp()
	if cutErr != nil {
		if i.plan.TornCut {
			// The charge pulse completed before power died: the page is
			// persisted but the host never sees the acknowledgement.
			_ = i.inner.ProgramTagged(b, page, data, dataLen, tag)
		}
		return cutErr
	}
	if i.badBlock(b) {
		i.stats.InjectedProgramFails++
		return fmt.Errorf("fault: program %d/%d in dead region: %w", b, page, flash.ErrProgramFail)
	}
	if i.plan.ProgramFailWindow.contains(idx) || i.draw(i.plan.ProgramFailProb) {
		i.stats.InjectedProgramFails++
		return fmt.Errorf("fault: injected program fail at op %d: %w", idx, flash.ErrProgramFail)
	}
	return i.inner.ProgramTagged(b, page, data, dataLen, tag)
}

// Erase implements storage.Flash.
func (i *Injector) Erase(b int) error {
	if i.down {
		return i.errDown()
	}
	idx, cutErr := i.beginOp()
	if cutErr != nil {
		if i.plan.TornCut {
			_ = i.inner.Erase(b)
		}
		return cutErr
	}
	if i.badBlock(b) {
		i.stats.InjectedEraseFails++
		return fmt.Errorf("fault: erase %d in dead region: %w", b, flash.ErrEraseFail)
	}
	if i.plan.EraseFailWindow.contains(idx) || i.draw(i.plan.EraseFailProb) {
		i.stats.InjectedEraseFails++
		return fmt.Errorf("fault: injected erase fail at op %d: %w", idx, flash.ErrEraseFail)
	}
	return i.inner.Erase(b)
}

// MarkStale implements storage.Flash. Stale-marking is controller metadata; it
// is not op-indexed, but a dead medium refuses it like everything else.
func (i *Injector) MarkStale(b, page int) error {
	if i.down {
		return i.errDown()
	}
	return i.inner.MarkStale(b, page)
}

// SetMode implements storage.Flash.
func (i *Injector) SetMode(b int, m flash.Mode) error {
	if i.down {
		return i.errDown()
	}
	return i.inner.SetMode(b, m)
}

// Retire implements storage.Flash.
func (i *Injector) Retire(b int) error {
	if i.down {
		return i.errDown()
	}
	return i.inner.Retire(b)
}

// Tag implements storage.Flash.
func (i *Injector) Tag(b, page int) (flash.PageTag, bool, error) {
	if i.down {
		return flash.PageTag{}, false, i.errDown()
	}
	return i.inner.Tag(b, page)
}

// Info implements storage.Flash.
func (i *Injector) Info(b int) (flash.BlockInfo, error) {
	if i.down {
		return flash.BlockInfo{}, i.errDown()
	}
	return i.inner.Info(b)
}

// PageRBER implements storage.Flash.
func (i *Injector) PageRBER(b, page int) (float64, error) {
	if i.down {
		return 0, i.errDown()
	}
	return i.inner.PageRBER(b, page)
}

// StateOf implements storage.Flash.
func (i *Injector) StateOf(b, page int) (flash.PageState, error) {
	if i.down {
		return 0, i.errDown()
	}
	return i.inner.StateOf(b, page)
}

// PagesIn implements storage.Flash.
func (i *Injector) PagesIn(b int) (int, error) {
	if i.down {
		return 0, i.errDown()
	}
	return i.inner.PagesIn(b)
}

// Geometry implements storage.Flash (host-side knowledge; power-independent).
func (i *Injector) Geometry() flash.Geometry { return i.inner.Geometry() }

// Tech implements storage.Flash (host-side knowledge; power-independent).
func (i *Injector) Tech() flash.Tech { return i.inner.Tech() }

// Blocks implements storage.Flash (host-side knowledge; power-independent).
func (i *Injector) Blocks() int { return i.inner.Blocks() }

// Stats implements storage.Flash, forwarding the wrapped chip's telemetry.
func (i *Injector) Stats() flash.Stats { return i.inner.Stats() }

// Planes reports a single plane: batched consumers then put every block
// in one run, preserving the canonical op order (see the package doc).
func (i *Injector) Planes() int { return 1 }

// PlaneOf places every block on the single reported plane.
func (i *Injector) PlaneOf(b int) int { return 0 }

// ReadRunInto executes a run of reads one fault-checked page op at a
// time, in run order. Payloads land in each op's Dst, mirroring the
// chip's contract; per-op errors (injected faults, the power cut) land
// in op.Err exactly as Read would report them.
func (i *Injector) ReadRunInto(ops []flash.ReadOp) {
	for k := range ops {
		op := &ops[k]
		op.Res, op.Err = i.Read(op.Block, op.Page)
		if op.Err == nil && op.Dst != nil && op.Res.Data != nil {
			n := copy(op.Dst, op.Res.Data)
			op.Res.Data = op.Dst[:n]
		}
	}
}

// ProgramRunTagged executes a run of tagged programs one fault-checked
// page op at a time, in run order. Owned buffers are always returned to
// the pool afterwards: ProgramTagged copies payloads into the chip, so
// ownership ends here whether the op succeeded, drew an injected
// failure, or died at the power cut.
func (i *Injector) ProgramRunTagged(ops []flash.ProgramOp) {
	for k := range ops {
		op := &ops[k]
		op.Err = i.ProgramTagged(op.Block, op.Page, op.Data, op.DataLen, op.Tag)
		if op.Own && op.Data != nil {
			i.ret[0] = op.Data
			i.inner.ReturnProgramBufs(0, i.ret[:])
			i.ret[0] = nil
			op.Data = nil
		}
	}
}

// TakeProgramBufs forwards to the wrapped medium's plane-0 pool (the
// consumer's plane index is always 0, the single reported plane);
// pooled buffers are plain host memory, usable for any block.
func (i *Injector) TakeProgramBufs(plane int, sizes []int, bufs [][]byte) {
	i.inner.TakeProgramBufs(0, sizes, bufs)
}

// ReturnProgramBufs forwards to the wrapped medium's plane-0 pool.
func (i *Injector) ReturnProgramBufs(plane int, bufs [][]byte) {
	i.inner.ReturnProgramBufs(0, bufs)
}
