package storage

import (
	"errors"

	"sos/internal/ecc"
	"sos/internal/flash"
)

// Relocation is the backend-independent middle of moving live pages —
// GC, scrub, and reclassification. Read reads the queued source pages
// in per-block runs with bounded retries; Move turns each read into the
// copy its destination programs (salvage, decode, re-encode,
// crystallize). The backend resolves the pages it moves, programs the
// copies, and remaps them; its counters, trace events, and error
// prefixes stay with it.
//
// The scratch — queued pages, their chip-pool read buffers, the
// re-encode buffer — is reused, so a steady-state relocation allocates
// nothing. It is kept apart from the read engines because a relocation
// can run while a ReadBatch's returned payloads still alias the
// engines' buffers, and apart from the write path's encode buffer
// because a host write's program can run GC, which relocates.
type Relocation struct {
	lpas  []int64
	ops   []flash.ReadOp
	sizes []int
	bufs  [][]byte
	enc   []byte
}

// Moved is one relocated page, ready to program at its destination.
type Moved struct {
	// Stored is the page re-encoded for its destination, aliasing the
	// Relocation's encode buffer until the next Move; nil for an
	// accounting-only page.
	Stored []byte
	// StoredLen is the physical length the copy occupies.
	StoredLen int
	// BaseFlips is the degradation the copy's mapping carries.
	BaseFlips int
	// Salvaged reports an unreadable approximate page moved as
	// accounting-only; Degraded reports a payload the source ECC could
	// not fully repair.
	Salvaged, Degraded bool
}

// Reset empties the queue for the next relocation.
func (r *Relocation) Reset() {
	r.lpas = r.lpas[:0]
	r.ops = r.ops[:0]
	r.sizes = r.sizes[:0]
}

// Add queues lpa's live page at ppa, holding dataLen logical bytes
// stored under scheme. Pages of one block must be queued consecutively
// (a victim in page order is), since Read reads each block as one run.
func (r *Relocation) Add(lpa int64, ppa PPA, scheme ecc.Scheme, dataLen int) {
	r.lpas = append(r.lpas, lpa)
	r.ops = append(r.ops, flash.ReadOp{Block: ppa.Block, Page: ppa.Page})
	r.sizes = append(r.sizes, ecc.StoredLen(scheme, dataLen))
}

// Len returns the number of queued pages.
func (r *Relocation) Len() int { return len(r.ops) }

// Page returns the k-th queued page's lpa and its read, which is valid
// from Read until Release.
func (r *Relocation) Page(k int) (int64, *flash.ReadOp) { return r.lpas[k], &r.ops[k] }

// relocReadAttempts bounds the reads relocation spends on one page
// before declaring it unreadable. Transient interface faults (the fault
// injector's read bursts) usually clear within a retry or two; a page
// that stays unreadable is salvaged or surfaced.
const relocReadAttempts = 3

// Read reads every queued page: one ReadRunInto per run of consecutive
// same-block pages (a block belongs to one plane), into chip-pool
// buffers, so the plane RNG draws match per-page reads exactly. Then
// each page's transient read faults (flash.ErrReadFault, which only the
// fault injector returns) are retried as one-page runs into the same
// buffer, up to relocReadAttempts reads in all. It returns the number
// of retries.
func (r *Relocation) Read(chip Flash) (retries int64) {
	if cap(r.bufs) < len(r.ops) {
		r.bufs = make([][]byte, len(r.ops))
	}
	r.bufs = r.bufs[:len(r.ops)]
	for lo, hi := 0, 0; lo < len(r.ops); lo = hi {
		hi = r.sameBlockRun(lo)
		chip.TakeProgramBufs(chip.PlaneOf(r.ops[lo].Block), r.sizes[lo:hi], r.bufs[lo:hi])
		for k := lo; k < hi; k++ {
			r.ops[k].Dst = r.bufs[k]
		}
		chip.ReadRunInto(r.ops[lo:hi])
	}
	for k := range r.ops {
		for a := 1; r.ops[k].Err != nil && errors.Is(r.ops[k].Err, flash.ErrReadFault) && a < relocReadAttempts; a++ {
			retries++
			chip.ReadRunInto(r.ops[k : k+1])
		}
	}
	return retries
}

// Release returns Read's buffers to their plane pools and drops every
// reference to them.
func (r *Relocation) Release(chip Flash) {
	for lo, hi := 0, 0; lo < len(r.ops); lo = hi {
		hi = r.sameBlockRun(lo)
		chip.ReturnProgramBufs(chip.PlaneOf(r.ops[lo].Block), r.bufs[lo:hi])
	}
	clear(r.bufs)
	for k := range r.ops {
		r.ops[k].Dst = nil
		r.ops[k].Res = flash.ReadResult{}
	}
}

// sameBlockRun returns the end of the run of queued pages sharing page
// lo's block.
func (r *Relocation) sameBlockRun(lo int) int {
	hi := lo + 1
	for hi < len(r.ops) && r.ops[hi].Block == r.ops[lo].Block {
		hi++
	}
	return hi
}

// Move turns op — the read of a page holding dataLen logical bytes,
// stored under src with baseFlips already crystallized — into its copy
// for a destination protected by dst. This is where the damage SPARE
// data took becomes permanent (§4.3):
//
//   - a read fault on an approximate source is salvaged: the page moves
//     as accounting-only with every bit suspect, so reads report it
//     degraded (loss is reported, never silent) and GC never wedges on
//     a dying block; any other read error comes back as is;
//   - an accounting page's accumulated flips crystallize into
//     BaseFlips;
//   - a payload is decoded in place with the source scheme, repairing
//     what it can — op holds a copy of the page, never the stored page
//     itself — truncated to dataLen, and re-encoded with dst, so what
//     the source could not repair crystallizes into the copy.
func (r *Relocation) Move(op *flash.ReadOp, src *StreamPolicy, dst ecc.Scheme, dataLen, baseFlips int) (Moved, error) {
	if op.Err != nil {
		if !errors.Is(op.Err, flash.ErrReadFault) || !src.Approximate() {
			return Moved{}, op.Err
		}
		return Moved{StoredLen: dst.Overhead(dataLen), BaseFlips: baseFlips + dataLen*8, Salvaged: true}, nil
	}
	if op.Res.Data == nil {
		return Moved{StoredLen: dst.Overhead(dataLen), BaseFlips: baseFlips + op.Res.FlippedTotal}, nil
	}
	data, _, derr := ecc.DecodeStored(src.Scheme, op.Res.Data)
	if len(data) > dataLen {
		data = data[:dataLen]
	}
	stored, err := ecc.EncodeToBuf(dst, r.enc, data)
	if err != nil {
		return Moved{}, err
	}
	r.enc = stored
	return Moved{Stored: stored, StoredLen: len(stored), BaseFlips: baseFlips, Degraded: derr != nil}, nil
}
