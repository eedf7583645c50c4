// Package storage defines the host-facing contract every translation
// layer in the stack implements. The paper names two host placement
// interfaces for the SYS/SPARE co-design (§4.3): multi-stream, where a
// device-side FTL owns placement (internal/ftl), and zones, where the
// host owns placement over append-only zones (internal/zns). Backend is
// the surface the device layer — and everything above it — programs
// against, so the whole stack (engine policy, fault injection, crash
// recovery, observability) runs unchanged over either interface.
//
// The package also holds the types both backends share: the Flash chip
// contract, stream policies, physical addresses, read results, and
// telemetry. They lived in internal/ftl before the backend split;
// internal/ftl keeps aliases so existing call sites are unaffected.
package storage

import (
	"errors"
	"fmt"
	"strings"

	"sos/internal/ecc"
	"sos/internal/flash"
)

// Exported errors, shared by every backend so callers can test with
// errors.Is without knowing which translation layer is mounted.
var (
	ErrNoSpace       = errors.New("storage: out of usable flash space")
	ErrUnknownLPA    = errors.New("storage: logical page not mapped")
	ErrUnknownStream = errors.New("storage: unknown stream")
	ErrPayloadSize   = errors.New("storage: payload exceeds logical page size")
	// ErrBadLPA rejects a write to a logical page address outside
	// 0..MaxLPA, the range the L2P directory can index (the fs allocates
	// LBAs sequentially from zero).
	ErrBadLPA = fmt.Errorf("storage: logical page address outside 0..%d", MaxLPA)
)

// Flash is the chip contract a backend programs against. *flash.Chip
// satisfies it directly; the fault interposer (internal/fault) wraps any
// Flash in another Flash, so backends, the device, and experiments run
// unmodified against real or fault-injected media.
//
// The method set is exactly the slice of *flash.Chip a translation
// layer needs: physical page ops, block lifecycle, OOB tags for
// rebuilds, telemetry, and the plane-run surface every batched path
// drives. A medium that cannot run planes concurrently (the fault
// injector) reports one plane and executes runs page by page.
type Flash interface {
	// Geometry returns the chip geometry.
	Geometry() flash.Geometry
	// Tech returns the physical cell technology.
	Tech() flash.Tech
	// Blocks returns the number of erase blocks.
	Blocks() int
	// PagesIn returns the page count block b exposes in its current mode.
	PagesIn(b int) (int, error)
	// ProgramTagged programs data (or, with data nil, an
	// accounting-only length) to (b, page) and records OOB controller
	// metadata.
	ProgramTagged(b, page int, data []byte, dataLen int, tag flash.PageTag) error
	// Tag returns the OOB metadata of a written page, if any.
	Tag(b, page int) (flash.PageTag, bool, error)
	// Read returns the page contents with accumulated bit errors.
	Read(b, page int) (flash.ReadResult, error)
	// MarkStale marks a page's contents as superseded.
	MarkStale(b, page int) error
	// Erase wipes block b, incrementing its wear.
	Erase(b int) error
	// SetMode changes the operating mode of a fully-erased block.
	SetMode(b int, m flash.Mode) error
	// Retire permanently removes block b from service.
	Retire(b int) error
	// Info returns the telemetry snapshot for block b.
	Info(b int) (flash.BlockInfo, error)
	// PageRBER returns the modelled RBER a read of (b, page) would see.
	PageRBER(b, page int) (float64, error)
	// StateOf returns the state of (b, page).
	StateOf(b, page int) (flash.PageState, error)
	// Stats returns cumulative operation counts.
	Stats() flash.Stats

	// Planes returns the number of independently lockable planes.
	Planes() int
	// PlaneOf returns the plane that owns block b.
	PlaneOf(b int) int
	// ReadRunInto executes a run of same-plane reads under one
	// plane-lock acquisition, reading payloads into each op's Dst.
	// Per-op results, error injection, and the plane RNG stream are
	// identical to issuing the same reads through Read in run order.
	ReadRunInto(ops []flash.ReadOp)
	// ProgramRunTagged executes a run of same-plane tagged programs
	// under one plane-lock acquisition; results and the plane RNG
	// stream are identical to per-op ProgramTagged calls in run order.
	ProgramRunTagged(ops []flash.ProgramOp)
	// TakeProgramBufs hands out pooled page buffers of plane p, so
	// payloads can be encoded in place and handed to the chip with
	// ProgramOp.Own (each byte written to the medium exactly once).
	TakeProgramBufs(plane int, sizes []int, bufs [][]byte)
	// ReturnProgramBufs gives taken-but-unused buffers back to plane
	// p's pool.
	ReturnProgramBufs(plane int, bufs [][]byte)
}

// The real chip must always satisfy the backend contract.
var _ Flash = (*flash.Chip)(nil)

// StreamID names a stream. Streams are dense small integers.
type StreamID int

// GCPolicy selects the victim-scoring rule for a stream's garbage
// collection.
type GCPolicy int

// GC policies.
const (
	// GCAuto picks cost-benefit for wear-leveled streams and greedy
	// otherwise (the paper's implied pairing).
	GCAuto GCPolicy = iota
	// GCGreedy picks the block with the most stale pages.
	GCGreedy
	// GCCostBenefit weighs reclaimed space against relocation cost and
	// wear.
	GCCostBenefit
)

func (p GCPolicy) String() string {
	switch p {
	case GCAuto:
		return "auto"
	case GCGreedy:
		return "greedy"
	case GCCostBenefit:
		return "cost-benefit"
	default:
		return fmt.Sprintf("GCPolicy(%d)", int(p))
	}
}

// StreamPolicy is the per-stream management contract. The FTL backend
// maps streams to block partitions; the ZNS backend maps them to zone
// attributes (stream 0 -> durable zones, stream 1 -> approximate zones).
type StreamPolicy struct {
	// Name for telemetry ("sys", "spare", ...).
	Name string
	// Mode blocks of this stream are operated in.
	Mode flash.Mode
	// Scheme protects pages of this stream.
	Scheme ecc.Scheme
	// WearLeveling enables min-wear allocation, static wear leveling,
	// and wear-aware GC for the stream. The paper disables it on SPARE
	// (§4.3, [73]). The ZNS backend has no per-block placement freedom
	// inside a zone, so it honors this only through victim scoring.
	WearLeveling bool
	// GC selects the victim-scoring rule (GCAuto pairs cost-benefit
	// with wear leveling, greedy without).
	GC GCPolicy
	// RetireRBER is the scrub threshold: pages whose modelled RBER
	// exceeds it are relocated and their block retired or resuscitated.
	// Zero selects DefaultRetireRBER.
	RetireRBER float64
	// Resuscitate lists the bits-per-cell ladder a worn block of this
	// stream is reborn into (e.g. [3] reincarnates worn PLC blocks as
	// pseudo-TLC). Empty means worn blocks retire outright. FTL-backend
	// only: zones change mode wholesale at open, not per block.
	Resuscitate []int
	// WearRetireFrac is the wear fraction (PEC / rated endurance) at
	// which blocks leave service at erase time. Zero selects 1.0 — the
	// conservative policy for protected streams. Approximate streams
	// set it above 1: SOS deliberately runs SPARE blocks past their
	// rating, relying on the scrub threshold and hard program/erase
	// failure handling instead (§4.3).
	WearRetireFrac float64
}

// Approximate reports whether the stream stores data under approximate
// semantics (no correction capability: detect-only or no ECC). Only
// approximate streams may salvage unreadable pages as reported loss;
// protected streams must surface hard faults instead.
func (p *StreamPolicy) Approximate() bool {
	switch p.Scheme.(type) {
	case ecc.None, ecc.DetectOnly:
		return true
	}
	return false
}

// DefaultRetireRBER retires a block when its current-write RBER passes
// half the end-of-life threshold; beyond that, fresh data on the block
// is already at risk before retention is added.
const DefaultRetireRBER = flash.EOLRBER / 2

// PPA is a physical page address.
type PPA struct {
	Block int
	Page  int
}

// ReadResult is the outcome of a logical read.
type ReadResult struct {
	// Data is the decoded payload; nil for accounting-only pages.
	// When Degraded is true the payload carries uncorrected errors.
	Data []byte
	// DataLen is the logical payload length.
	DataLen int
	// Corrected is how many byte corrections ECC applied.
	Corrected int
	// Degraded reports that ECC could not fully correct (or, for
	// detect-only schemes, that corruption was detected). The data is
	// still returned — approximate storage semantics.
	Degraded bool
	// RawFlips is the raw bit error count the medium has accumulated.
	RawFlips int
	// Stream the page belongs to.
	Stream StreamID
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	PagesChecked   int
	PagesRelocated int
	// BlocksFreed counts erase blocks returned to service by the pass
	// (for the ZNS backend: blocks of zones reset after draining).
	BlocksFreed int
}

// Stats is backend telemetry. The fields are defined by the FTL's
// accounting; the ZNS backend reports the equivalent host-side numbers
// (GCRuns = zone reclamations, Retired = blocks of offline zones,
// FreeBlocks = blocks of empty zones).
type Stats struct {
	HostWrites    int64
	FlashPrograms int64
	GCRuns        int64
	GCMoves       int64
	Retired       int64
	Resuscitated  int64
	DegradedReads int64
	ProgFailures  int64
	StaticWLMoves int64
	// RelocRetries counts transient read faults retried during
	// relocation; SalvagedPages/SalvagedBytes report SPARE data the
	// salvage path crystallized as lost (reported, never silent).
	RelocRetries  int64
	SalvagedPages int64
	SalvagedBytes int64
	FreeBlocks    int
	MappedPages   int
}

// Backend is the translation-layer contract the device programs
// against: logical page I/O under stream policies, reclamation, the
// degradation monitor, capacity variance, fault escalation, and crash
// recovery. *ftl.FTL (device-side multi-stream FTL) and *zns.Backend
// (host-side FTL over zones) both implement it.
//
// Logical I/O has one shape: WriteBatch and ReadBatch. Write and Read
// are batches of one through the same entry points.
type Backend interface {
	// Name identifies the backend kind ("ftl", "zns") for telemetry.
	Name() string
	// LogicalPageSize returns the payload bytes per logical page.
	LogicalPageSize() int
	// Streams returns the configured stream policies.
	Streams() []StreamPolicy
	// UsablePages returns the advertised capacity in logical pages. It
	// shrinks under capacity variance (§4.3).
	UsablePages() int
	// MappedPages returns the number of live logical pages.
	MappedPages() int
	// WriteBatch stores every op (semantically equivalent to writing
	// them one by one in Seq order) and records each op's fate in
	// fates[i] for ops[i]. queues is the number of submission queues
	// the ops were dealt across; workers bounds the goroutines used for
	// the parallel phases (<=1 runs everything on the caller's
	// goroutine). Neither may change the resulting state — only
	// wall-clock time.
	WriteBatch(ops []BatchOp, fates []BatchFate, queues, workers int)
	// ReadBatch resolves, reads, and decodes every op (semantically
	// equivalent to reading them one by one in Seq order) and records
	// each op's fate in fates[i] for ops[i]; queues and workers as for
	// WriteBatch. Mappings, telemetry, and the plane RNG streams land
	// exactly where one-by-one reads would leave them. Returned
	// payloads alias chip-owned buffers that stay valid until the next
	// ReadBatch call; callers that retain them longer must copy.
	ReadBatch(ops []BatchReadOp, fates []BatchReadFate, queues, workers int)
	// Write stores data (length <= LogicalPageSize) at lpa under the
	// given stream: a one-op WriteBatch. A nil data with dataLen > 0
	// performs an accounting-only write (no payload stored; error
	// counts still modelled).
	Write(lpa int64, data []byte, dataLen int, id StreamID) error
	// Read fetches lpa, decoding through the stream's ECC scheme: a
	// one-op ReadBatch with its own buffer, so it never recycles the
	// payloads of an outstanding ReadBatch. The payload stays valid
	// until the next Read.
	Read(lpa int64) (ReadResult, error)
	// Digest returns the host payload digest recorded for a mapped lpa
	// (false when the page carries none: accounting-only writes).
	//
	// Digests make the backend an integrity oracle: a write carries the
	// host-computed digest (BatchOp.Digest) into the page's OOB tag,
	// and relocation and rebuild carry it through verbatim, never
	// recomputing it from the medium. A digest therefore always
	// describes the bytes the host originally wrote; a clean read whose
	// payload hashes differently is a silent corruption (in this model:
	// degraded data crystallized by a GC/scrub relocation re-encoding it
	// under fresh ECC).
	Digest(lpa int64) (uint64, bool)
	// Hint returns the lifetime bin recorded for a mapped lpa (false
	// when unmapped). Like the digest, the hint is persisted in OOB at
	// program time and carried verbatim through relocation, so every
	// GC decision derived from hints is a pure function of OOB state
	// and a rebuilt backend reaches the same decisions.
	Hint(lpa int64) (LifetimeHint, bool)
	// HintedWrites returns how many host writes carried a non-None
	// lifetime hint; DeadSkipStats returns the GC victims parked
	// awaiting predicted deaths and the live pages those parks
	// deferred. Kept off Stats, whose fields are golden-coupled.
	HintedWrites() int64
	DeadSkipStats() (defers, pages int64)
	// Trim drops the mapping for lpa (host discard / file delete).
	Trim(lpa int64) error
	// Contains reports whether lpa is mapped.
	Contains(lpa int64) bool
	// StreamOf returns the stream a mapped lpa belongs to.
	StreamOf(lpa int64) (StreamID, bool)
	// Locate reports where a mapped lpa physically lives, its stream,
	// and its logical payload length. The device layer's fault ladder
	// uses it to escalate repeated hard read faults into retirement.
	Locate(lpa int64) (ppa PPA, stream StreamID, dataLen int, ok bool)
	// Relocate moves a logical page to a different stream (classifier
	// demotion/promotion) or refreshes it within its stream.
	Relocate(lpa int64, dst StreamID) error
	// Quarantine condemns the erase block (for ZNS: the zone containing
	// it) after repeated hard faults observed above the backend: no
	// further programs land there, live data drains, and the silicon
	// leaves service.
	Quarantine(block int) error
	// Scrub runs one degradation-monitor pass with the given move
	// budget (0 = unlimited).
	Scrub(maxMoves int) (ScrubReport, error)
	// Stats returns a telemetry snapshot.
	Stats() Stats
	// WriteAmplification returns flash programs per host write.
	WriteAmplification() float64
	// SetCapacityCallback installs fn to fire (deferred to the end of
	// the public operation that caused it) whenever retirement,
	// resuscitation, or a mode switch changes UsablePages.
	SetCapacityCallback(fn func(usablePages int))
	// Recover constructs a fresh backend of the same kind and
	// configuration over the surviving medium and rebuilds its volatile
	// state from OOB page tags — the remount path after a power loss.
	// The receiver is the crashed instance; only its configuration and
	// medium are consulted.
	Recover() (Backend, error)
	// CheckInvariants verifies the backend's internal consistency
	// contract (exported for the crash-torture harness).
	CheckInvariants() error
}

// Kind names a backend implementation.
type Kind int

// Backend kinds.
const (
	// KindFTL is the device-side multi-stream FTL (internal/ftl).
	KindFTL Kind = iota
	// KindZNS is the host-side FTL over zoned namespaces (internal/zns).
	KindZNS
)

func (k Kind) String() string {
	switch k {
	case KindFTL:
		return "ftl"
	case KindZNS:
		return "zns"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds returns every backend kind in declaration order.
func Kinds() []Kind { return []Kind{KindFTL, KindZNS} }

// ParseKind maps a backend name ("ftl", "zns"; case- and
// space-insensitive) to its Kind. It is the single parser behind every
// -backend flag and config file.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "ftl":
		return KindFTL, nil
	case "zns":
		return KindZNS, nil
	default:
		return 0, fmt.Errorf("storage: unknown backend %q (want ftl or zns)", s)
	}
}

// MarshalText renders the kind name, so Kind round-trips through
// text-based encodings (flag.TextVar, JSON, config files).
func (k Kind) MarshalText() ([]byte, error) {
	switch k {
	case KindFTL, KindZNS:
		return []byte(k.String()), nil
	default:
		return nil, fmt.Errorf("storage: unknown backend %d", int(k))
	}
}

// UnmarshalText parses a backend name in place.
func (k *Kind) UnmarshalText(text []byte) error {
	parsed, err := ParseKind(string(text))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}
