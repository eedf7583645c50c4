package storage

import (
	"cmp"
	"slices"

	"sos/internal/ecc"
	"sos/internal/flash"
)

// Batched submission: the shape of every logical write and read. The
// device layer collects a burst of logical ops, deals them across
// submission queues, and hands the whole batch to the backend in one
// call. The backend parallelizes what is safe to parallelize (per-queue
// ECC, per-plane media runs) and keeps everything order-sensitive
// (placement, mapping updates, telemetry) in one canonical pass, so a
// batch produces byte-identical state at every worker count. A per-op
// call is a batch of one.

// BatchOp is one logical write inside a batch. Seq is the op's global
// submission sequence number and Queue its submission queue; both are
// assigned by the device before the backend sees the batch (queues are
// dealt contiguous chunks of Seq — see sim.DealQueue).
type BatchOp struct {
	LPA     int64
	Data    []byte
	DataLen int
	Stream  StreamID
	Seq     uint64
	Queue   int
	// Digest/HasDigest carry the host-computed payload digest into the
	// page's OOB tag (see Backend.Digest). Zero-valued when the writer
	// tracks no digests.
	Digest    uint64
	HasDigest bool
	// Hint is the predicted-lifetime bin routing this op to its
	// per-(stream, bin) active block or zone and persisted in its OOB
	// tag (see Backend.Hint). The zero value HintNone reproduces
	// unhinted placement exactly.
	Hint LifetimeHint
}

// PayloadLen returns the op's logical payload length: len(Data) for a
// payload write, DataLen for an accounting-only one.
func (op *BatchOp) PayloadLen() int {
	if op.Data != nil {
		return len(op.Data)
	}
	return op.DataLen
}

// ValidateBatch is the first phase of every backend's WriteBatch. It
// resets each op's fate, rejects malformed ops — an unknown stream, an
// LPA outside 0..MaxLPA, a payload length outside 1..pageSize, checked
// in that order — with the shared sentinels, and records each op's
// codeword size in sizes[i]: -1 for a reject, 0 for an accounting-only
// op.
func ValidateBatch(ops []BatchOp, fates []BatchFate, streams []StreamPolicy, pageSize int, sizes []int) {
	for i := range ops {
		op := &ops[i]
		fates[i] = BatchFate{Block: -1, Page: -1}
		sizes[i] = -1
		n := op.PayloadLen()
		switch {
		case op.Stream < 0 || int(op.Stream) >= len(streams):
			fates[i].Err = ErrUnknownStream
		case op.LPA < 0 || op.LPA > MaxLPA:
			fates[i].Err = ErrBadLPA
		case n <= 0 || n > pageSize:
			fates[i].Err = ErrPayloadSize
		case op.Data == nil:
			sizes[i] = 0
		default:
			sizes[i] = ecc.StoredLen(streams[op.Stream].Scheme, n)
		}
	}
}

// ValidTag reports whether an OOB tag read back by a rebuild is one a
// write could have left: a known stream, an LPA in 0..MaxLPA and a
// payload length in 1..pageSize (what ValidateBatch admits), and a
// nonzero serial (write serials start at 1). A rebuild treats any other
// tag like a missing one — its page is garbage — since installing it
// would map an LPA the read path cannot serve. Only a corrupt image
// holds such tags: a torn cut persists a whole, valid tag.
func ValidTag(tag flash.PageTag, streams []StreamPolicy, pageSize int) bool {
	return int(tag.Stream) < len(streams) && tag.LPA >= 0 && tag.LPA <= MaxLPA &&
		tag.DataLen >= 1 && int(tag.DataLen) <= pageSize && tag.Serial != 0
}

// Candidate is one page a rebuild's election considers: the LPA and
// serial of a tag ValidTag admitted, and Index, the candidate's place
// in the rebuild's scan order.
type Candidate struct {
	LPA    int64
	Serial uint64
	Index  int32
}

// Elect orders a rebuild's candidates for installation, with no table
// indexed by LPA, so its memory follows the medium rather than the LPAs
// tags name: ascending LPA, then descending serial, then scan order.
// The first candidate of each LPA wins — the newest copy, and of equal
// serials the first one scanned — so winners come in ascending LPA
// order, and every later candidate of the same LPA lost.
func Elect(cands []Candidate) {
	slices.SortFunc(cands, func(a, b Candidate) int {
		if a.LPA != b.LPA {
			return cmp.Compare(a.LPA, b.LPA)
		}
		if a.Serial != b.Serial {
			return cmp.Compare(b.Serial, a.Serial)
		}
		return cmp.Compare(a.Index, b.Index)
	})
}

// BatchFate is the per-op outcome of a batch, in submission order.
// Block/Page report where the payload landed (valid when Err is nil).
type BatchFate struct {
	Err   error
	Block int
	Page  int
}

// BatchReadOp is one logical read inside a batch. Seq/Queue are
// assigned by the device before the backend sees the batch, exactly as
// for BatchOp (contiguous Seq chunks per queue — see sim.DealQueue).
type BatchReadOp struct {
	LPA   int64
	Seq   uint64
	Queue int
}

// BatchReadFate is the per-op outcome of a read batch, in submission
// order. Block/Page report the physical page the read resolved to (-1
// when the LPA was unmapped), so the device layer can lane the
// completion onto the owning plane's virtual-time timeline.
type BatchReadFate struct {
	Res   ReadResult
	Err   error
	Block int
	Page  int
}
