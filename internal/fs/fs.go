// Package fs implements a small page-granular filesystem over the
// simulated device. It provides the host half of the SOS co-design:
// files carry a storage class, whole files can be reclassified (the
// classifier's demotion path), and the filesystem tolerates a *shrinking*
// device — the capacity variance of §4.3 — by tracking advertised
// capacity and raising pressure callbacks instead of failing outright.
package fs

import (
	"errors"
	"fmt"
	"sort"

	"sos/internal/device"
	"sos/internal/sim"
	"sos/internal/storage"
)

// Filesystem errors.
var (
	ErrNotFound  = errors.New("fs: file not found")
	ErrExists    = errors.New("fs: file already exists")
	ErrNoSpace   = errors.New("fs: out of space")
	ErrBadSize   = errors.New("fs: invalid size")
	ErrEmptyName = errors.New("fs: empty file name")
)

// FileID identifies a file.
type FileID int64

// fileEntry is the in-memory inode.
type fileEntry struct {
	id      FileID
	name    string
	class   device.Class
	hint    storage.LifetimeHint // predicted-lifetime bin for placement
	size    int64
	pages   []int64 // LBAs, in order
	real    bool    // payload bytes stored (vs accounting-only)
	created sim.Time
	updated sim.Time
	reads   int64
	writes  int64
}

// FS is the filesystem.
type FS struct {
	dev    *device.Device
	byID   map[FileID]*fileEntry
	byName map[string]FileID
	nextID FileID
	nextLB int64

	capacity int64 // advertised device capacity (shrinks over time)
	used     int64 // bytes consumed by live pages (page-granular)

	// OnPressure fires when used capacity exceeds the given fraction of
	// advertised capacity after a shrink or a write. The handler is
	// expected to free space (auto-delete, §4.5).
	OnPressure func(used, capacity int64)
	// PressureFrac is the fraction of capacity that triggers OnPressure
	// (default 0.97, i.e. the 3%-free target of §4.5).
	PressureFrac float64

	// busy is the file currently inside a mutating operation. Pressure
	// handlers run re-entrantly (a write can trigger auto-delete) and
	// must not delete the file under mutation — they consult Busy().
	busy FileID

	// batch/rbatch are the reusable scratch for batched multi-page
	// writes and reads; rdata holds the payload ReadBatch returns.
	batch  []device.BatchWrite
	rbatch []device.BatchRead
	rdata  []byte
}

// New mounts a filesystem on the device.
func New(dev *device.Device) (*FS, error) {
	if dev == nil {
		return nil, errors.New("fs: nil device")
	}
	f := &FS{
		dev:          dev,
		byID:         make(map[FileID]*fileEntry),
		byName:       make(map[string]FileID),
		capacity:     dev.CapacityBytes(),
		PressureFrac: 0.97,
		busy:         -1,
	}
	dev.OnCapacityChange = func(bytes int64) {
		f.capacity = bytes
		f.checkPressure()
	}
	return f, nil
}

// Busy returns the id of the file inside the current mutating
// operation, or -1. Pressure handlers must not delete it.
func (f *FS) Busy() FileID { return f.busy }

// enter marks id busy for the duration of a mutating operation,
// restoring the previous value on exit (operations can nest through
// pressure callbacks).
func (f *FS) enter(id FileID) func() {
	prev := f.busy
	f.busy = id
	return func() { f.busy = prev }
}

func (f *FS) checkPressure() {
	if f.OnPressure == nil {
		return
	}
	if float64(f.used) > f.PressureFrac*float64(f.capacity) {
		f.OnPressure(f.used, f.capacity)
	}
}

// pageSize returns the device's logical page size.
func (f *FS) pageSize() int64 { return int64(f.dev.PageSize()) }

// pagesFor returns the page count a size needs.
func (f *FS) pagesFor(size int64) int64 {
	ps := f.pageSize()
	return (size + ps - 1) / ps
}

// Create writes a new file. payload may be nil (accounting-only bulk
// data) in which case size must be positive; with a payload, size is
// len(payload). Returns the new file's id.
func (f *FS) Create(name string, payload []byte, size int64, class device.Class) (FileID, error) {
	return f.CreateHinted(name, payload, size, class, storage.HintNone)
}

// CreateHinted is Create plus a predicted-lifetime bin stamped on the
// file: every page write carries the bin to the device so the backend
// co-locates same-bin data (longevity placement). HintNone reproduces
// Create exactly.
func (f *FS) CreateHinted(name string, payload []byte, size int64, class device.Class, hint storage.LifetimeHint) (FileID, error) {
	if name == "" {
		return 0, ErrEmptyName
	}
	if _, ok := f.byName[name]; ok {
		return 0, ErrExists
	}
	if payload != nil {
		size = int64(len(payload))
	}
	if size <= 0 {
		return 0, ErrBadSize
	}
	id := f.nextID
	f.nextID++
	e := &fileEntry{
		id: id, name: name, class: class, hint: hint, real: payload != nil,
		created: f.dev.Clock().Now(), updated: f.dev.Clock().Now(),
	}
	defer f.enter(id)()
	if err := f.writePages(e, payload, size, class); err != nil {
		return 0, err
	}
	f.byID[id] = e
	f.byName[name] = id
	f.checkPressure()
	return id, nil
}

// writePages (re)writes a file's content, trimming any previous pages.
// When either the logical capacity or the physical device is exhausted
// it invokes the pressure handler (auto-delete, §4.5) once and retries.
func (f *FS) writePages(e *fileEntry, payload []byte, size int64, class device.Class) error {
	err := f.writePagesOnce(e, payload, size, class)
	if errors.Is(err, ErrNoSpace) && f.OnPressure != nil {
		f.OnPressure(f.used, f.capacity)
		err = f.writePagesOnce(e, payload, size, class)
	}
	return err
}

func (f *FS) writePagesOnce(e *fileEntry, payload []byte, size int64, class device.Class) error {
	npages := f.pagesFor(size)
	if f.used+npages*f.pageSize()-int64(len(e.pages))*f.pageSize() > f.capacity {
		return ErrNoSpace
	}
	// Trim old pages first (an update rewrites the whole file).
	for _, lba := range e.pages {
		if err := f.dev.Trim(lba); err != nil {
			return fmt.Errorf("fs: trim during rewrite: %w", err)
		}
	}
	f.used -= int64(len(e.pages)) * f.pageSize()
	e.pages = e.pages[:0]

	// Every file, single-page ones included, goes down the device's
	// batched multi-queue path; its results are identical to a
	// page-at-a-time loop at every queue and worker count.
	if err := f.writeBatchOnce(e, payload, size, npages, class); err != nil {
		return err
	}
	e.size = size
	e.class = class
	e.real = payload != nil
	e.updated = f.dev.Clock().Now()
	e.writes++
	f.used += npages * f.pageSize()
	return nil
}

// writeBatchOnce writes all of a file's pages as one device batch. On
// any per-page failure the pages that did land are trimmed and the
// first error is returned. Real payloads carry an integrity digest,
// computed here — before any encoding or medium decay — and stored
// durably in each page's OOB tag (see storage.Backend.Digest); the
// file's lifetime bin rides along.
func (f *FS) writeBatchOnce(e *fileEntry, payload []byte, size, npages int64, class device.Class) error {
	ps := f.pageSize()
	if cap(f.batch) < int(npages) {
		f.batch = make([]device.BatchWrite, npages)
	}
	ws := f.batch[:npages]
	for p := int64(0); p < npages; p++ {
		lba := f.nextLB
		f.nextLB++
		chunkLen := int(ps)
		if p == npages-1 {
			chunkLen = int(size - p*ps)
		}
		var chunk []byte
		var digest uint64
		hasDigest := false
		if payload != nil {
			lo := p * ps
			chunk = payload[lo : lo+int64(chunkLen)]
			digest = storage.DigestOf(chunk)
			hasDigest = true
		}
		ws[p] = device.BatchWrite{LBA: lba, Data: chunk, DataLen: chunkLen, Class: class, Digest: digest, HasDigest: hasDigest, Hint: e.hint}
	}
	_, fates, err := f.dev.WriteBatch(ws)
	if err == nil {
		for i := range fates {
			if fates[i].Err != nil {
				err = fates[i].Err
				break
			}
		}
	}
	if err != nil {
		for i := range ws {
			if fates != nil && fates[i].Err == nil {
				_ = f.dev.Trim(ws[i].LBA)
			}
		}
		e.pages = e.pages[:0]
		e.size = 0
		if errors.Is(err, storage.ErrNoSpace) {
			return ErrNoSpace
		}
		return err
	}
	for i := range ws {
		e.pages = append(e.pages, ws[i].LBA)
	}
	return nil
}

// Update rewrites an existing file with new content (same semantics as
// Create for payload/size). The file keeps its stored lifetime bin.
func (f *FS) Update(id FileID, payload []byte, size int64) error {
	e, ok := f.byID[id]
	if !ok {
		return ErrNotFound
	}
	return f.update(e, payload, size)
}

// UpdateHinted is Update with a freshly predicted lifetime bin: an
// updated file's remaining lifetime is a new prediction, not the one
// made at creation.
func (f *FS) UpdateHinted(id FileID, payload []byte, size int64, hint storage.LifetimeHint) error {
	e, ok := f.byID[id]
	if !ok {
		return ErrNotFound
	}
	e.hint = hint
	return f.update(e, payload, size)
}

func (f *FS) update(e *fileEntry, payload []byte, size int64) error {
	if payload != nil {
		size = int64(len(payload))
	}
	if size <= 0 {
		return ErrBadSize
	}
	defer f.enter(e.id)()
	if err := f.writePages(e, payload, size, e.class); err != nil {
		return err
	}
	f.checkPressure()
	return nil
}

// ReadResult is the outcome of reading a whole file.
type ReadResult struct {
	// Data is the reassembled payload for real files, nil for
	// accounting-only files.
	Data []byte
	// Size is the file size in bytes.
	Size int64
	// DegradedPages counts pages whose ECC failed (approximate data).
	DegradedPages int
	// Pages is the total page count.
	Pages int
	// RawFlips is the total raw bit errors across pages.
	RawFlips int
	// Latency is the summed modelled device latency.
	Latency sim.Time
}

// Read fetches a file's full content.
func (f *FS) Read(id FileID) (ReadResult, error) {
	e, ok := f.byID[id]
	if !ok {
		return ReadResult{}, ErrNotFound
	}
	var out ReadResult
	out.Size = e.size
	out.Pages = len(e.pages)
	if e.real {
		out.Data = make([]byte, 0, e.size)
	}
	for _, lba := range e.pages {
		res, err := f.dev.Read(lba)
		if err != nil {
			return out, fmt.Errorf("fs: read %q page: %w", e.name, err)
		}
		if res.Degraded {
			out.DegradedPages++
		}
		out.RawFlips += res.RawFlips
		out.Latency += res.Latency
		if e.real {
			if res.Data == nil && res.DataLen > 0 {
				// Salvaged page: the device degraded an unreadable SPARE
				// page to a hole rather than failing the read. Zero-fill
				// so the file keeps its length; DegradedPages reports it.
				out.Data = append(out.Data, make([]byte, res.DataLen)...)
			} else {
				out.Data = append(out.Data, res.Data...)
			}
		}
	}
	e.reads++
	return out, nil
}

// ReadBatch fetches a file's full content through the device's batched
// multi-queue read path: all pages are submitted as one batch, planes
// read in parallel and queues decode in parallel as the backend's
// safety rules allow, and the reassembled payload is byte-identical to
// Read at every (queues, read-workers) setting. Latency is the batch
// makespan — where plane parallelism shows up in modelled time — rather
// than Read's per-page sum. Single-page files take Read.
//
// A multi-page file's Data aliases a buffer the FS owns, so steady-state
// reads allocate nothing: it stays valid until the next ReadBatch on
// this FS, and callers that keep it longer must copy it (or use Read).
func (f *FS) ReadBatch(id FileID) (ReadResult, error) {
	e, ok := f.byID[id]
	if !ok {
		return ReadResult{}, ErrNotFound
	}
	if len(e.pages) <= 1 {
		return f.Read(id)
	}
	var out ReadResult
	out.Size = e.size
	out.Pages = len(e.pages)
	if e.real {
		if int64(cap(f.rdata)) < e.size {
			f.rdata = make([]byte, 0, e.size)
		}
		out.Data = f.rdata[:0]
	}
	if cap(f.rbatch) < len(e.pages) {
		f.rbatch = make([]device.BatchRead, len(e.pages))
	}
	rds := f.rbatch[:len(e.pages)]
	for i, lba := range e.pages {
		rds[i] = device.BatchRead{LBA: lba}
	}
	lat, fates := f.dev.ReadBatch(rds)
	out.Latency = lat
	for i := range fates {
		if fates[i].Err != nil {
			return out, fmt.Errorf("fs: read %q page: %w", e.name, fates[i].Err)
		}
		res := &fates[i].Res
		if res.Degraded {
			out.DegradedPages++
		}
		out.RawFlips += res.RawFlips
		if e.real {
			if res.Data == nil && res.DataLen > 0 {
				// Salvaged page: zero-fill the hole, exactly as Read does.
				out.Data = append(out.Data, make([]byte, res.DataLen)...)
			} else {
				out.Data = append(out.Data, res.Data...)
			}
		}
	}
	e.reads++
	return out, nil
}

// Delete removes a file and trims its pages.
func (f *FS) Delete(id FileID) error {
	e, ok := f.byID[id]
	if !ok {
		return ErrNotFound
	}
	for _, lba := range e.pages {
		if err := f.dev.Trim(lba); err != nil {
			return fmt.Errorf("fs: trim %q: %w", e.name, err)
		}
	}
	f.used -= int64(len(e.pages)) * f.pageSize()
	delete(f.byID, id)
	delete(f.byName, e.name)
	return nil
}

// Reclassify moves all of a file's pages to the stream of the given
// class.
func (f *FS) Reclassify(id FileID, class device.Class) error {
	e, ok := f.byID[id]
	if !ok {
		return ErrNotFound
	}
	if e.class == class {
		return nil
	}
	defer f.enter(id)()
	for _, lba := range e.pages {
		if err := f.dev.Reclassify(lba, class); err != nil {
			if errors.Is(err, storage.ErrNoSpace) {
				// Pages moved so far stay in the new stream; the file
				// remains logically in its old class and a later
				// review can retry.
				return ErrNoSpace
			}
			return fmt.Errorf("fs: reclassify %q: %w", e.name, err)
		}
	}
	e.class = class
	return nil
}

// Stat describes a file.
type Stat struct {
	ID      FileID
	Name    string
	Class   device.Class
	Hint    storage.LifetimeHint
	Size    int64
	Pages   int
	Real    bool
	Created sim.Time
	Updated sim.Time
	Reads   int64
	Writes  int64
}

// Stat returns a file's description.
func (f *FS) Stat(id FileID) (Stat, error) {
	e, ok := f.byID[id]
	if !ok {
		return Stat{}, ErrNotFound
	}
	return Stat{
		ID: e.id, Name: e.name, Class: e.class, Hint: e.hint, Size: e.size,
		Pages: len(e.pages), Real: e.real,
		Created: e.created, Updated: e.updated,
		Reads: e.reads, Writes: e.writes,
	}, nil
}

// Lookup resolves a name to an id.
func (f *FS) Lookup(name string) (FileID, error) {
	id, ok := f.byName[name]
	if !ok {
		return 0, ErrNotFound
	}
	return id, nil
}

// List returns stats for all files, sorted by id.
func (f *FS) List() []Stat {
	out := make([]Stat, 0, len(f.byID))
	for id := range f.byID {
		st, _ := f.Stat(id)
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PageLBA returns the LBA of the i'th page of a file, for callers that
// address pages individually (the integrity auditor samples file slices
// and reads them through the device's fault ladder).
func (f *FS) PageLBA(id FileID, i int) (int64, bool) {
	e, ok := f.byID[id]
	if !ok || i < 0 || i >= len(e.pages) {
		return 0, false
	}
	return e.pages[i], true
}

// Usage reports used and advertised-capacity bytes.
func (f *FS) Usage() (used, capacity int64) { return f.used, f.capacity }

// FreeFrac returns the fraction of advertised capacity that is free.
func (f *FS) FreeFrac() float64 {
	if f.capacity <= 0 {
		return 0
	}
	return 1 - float64(f.used)/float64(f.capacity)
}

// Files returns the number of live files.
func (f *FS) Files() int { return len(f.byID) }

// Device exposes the underlying device.
func (f *FS) Device() *device.Device { return f.dev }
