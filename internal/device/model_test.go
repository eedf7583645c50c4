package device

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/ftl"
	"sos/internal/sim"
	"sos/internal/storage"
	"sos/internal/zns"
)

// The reference-model differential test: one decoded op sequence runs
// on every backend against a plain map-of-LPA model, and after every op
// the backend's observable state must equal the model's. The backends
// are built by NewBackend over a small SLC chip kept under GC pressure,
// so reclamation, dead-data parking and quarantine drains run between
// the checks. SLC keeps raw errors out; the only data change the model
// tolerates is degradation the backend reports on an approximate
// stream.

// Model geometry: 64 SLC blocks of 16 small pages, zones of two blocks,
// and an LPA space big enough to keep GC busy.
const (
	modelLPAs        = 384
	modelPageSize    = 512
	modelQuarantines = 4 // per run, so quarantines cannot consume the chip
)

// modelStreams is the SOS split on SLC: a protected SYS stream and an
// approximate SPARE stream, one per zone attribute.
func modelStreams() []storage.StreamPolicy {
	return []storage.StreamPolicy{
		{Name: "sys", Mode: flash.NativeMode(flash.SLC), Scheme: ecc.MustRSScheme(223, 32), WearLeveling: true},
		{Name: "spare", Mode: flash.NativeMode(flash.SLC), Scheme: ecc.DetectOnly{}},
	}
}

// modelPage is the reference state of one mapped LPA.
type modelPage struct {
	data      []byte // nil for an accounting-only page
	dataLen   int
	stream    storage.StreamID
	digest    uint64
	hasDigest bool
	hint      storage.LifetimeHint
	// exposed marks a page that sat on an approximate stream while the
	// backend reported degradation: its bytes may have crystallized.
	exposed bool
}

// opReader decodes an op sequence; an exhausted input reads as zeros.
type opReader struct {
	b []byte
	i int
}

func (r *opReader) more() bool { return r.i < len(r.b) }

func (r *opReader) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	v := r.b[r.i]
	r.i++
	return int(v)
}

func (r *opReader) lpa() int64 { return int64((r.next()<<8 | r.next()) % modelLPAs) }

// modelRun drives one backend through a decoded op sequence.
type modelRun struct {
	t     testing.TB
	be    storage.Backend
	chip  *flash.Chip
	pages map[int64]*modelPage
	op    int // ops applied, for failure messages

	quarantines int
	condemned   map[int]bool // quarantined blocks that held live data, not yet retired
	drained     int          // condemned units retired after draining

	degraded int64 // backend-reported degradation seen so far
	wops     []storage.BatchOp
	wfates   []storage.BatchFate
	rops     []storage.BatchReadOp
	rfates   []storage.BatchReadFate
}

func newModelRun(t testing.TB, kind storage.Kind) *modelRun {
	t.Helper()
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: modelPageSize, Spare: 128, PagesPerBlock: 16, Blocks: 64},
		Tech:     flash.SLC,
		Clock:    &sim.Clock{},
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewBackend(BackendConfig{Kind: kind, Medium: chip, Streams: modelStreams(), BlocksPerZone: 2})
	if err != nil {
		t.Fatal(err)
	}
	return &modelRun{t: t, be: be, chip: chip, pages: map[int64]*modelPage{}, condemned: map[int]bool{}}
}

func (m *modelRun) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("%s op %d: %s", m.be.Name(), m.op, fmt.Sprintf(format, args...))
}

// payload returns a deterministic payload of n bytes seeded by s.
func payload(n, s int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(s + i*31 + i>>3)
	}
	return p
}

// writeOp decodes one write: usually valid, sometimes malformed (unknown
// stream, bad size, negative LPA) so rejection paths are judged too.
func (m *modelRun) writeOp(r *opReader) (op storage.BatchOp, want error) {
	op.LPA = r.lpa()
	op.Stream = storage.StreamID(r.next() & 1)
	n := 1 + (r.next()<<8|r.next())%modelPageSize
	if r.next()&3 == 0 {
		op.DataLen = n // accounting-only
	} else {
		op.Data = payload(n, r.next())
	}
	switch r.next() {
	case 0:
		op.Stream, want = 2, storage.ErrUnknownStream
	case 1:
		op.LPA, want = -1-op.LPA, storage.ErrBadLPA
	case 2:
		op.Data, op.DataLen, want = nil, 0, storage.ErrPayloadSize
	case 3:
		op.Data, op.DataLen, want = payload(modelPageSize+1, 0), 0, storage.ErrPayloadSize
	}
	return op, want
}

// settleWrite applies one write's outcome to the model.
func (m *modelRun) settleWrite(op *storage.BatchOp, want, err error) {
	m.t.Helper()
	if want != nil {
		if !errors.Is(err, want) {
			m.fatalf("write lpa %d: got %v, want %v", op.LPA, err, want)
		}
		return
	}
	if err != nil {
		if !errors.Is(err, storage.ErrNoSpace) {
			m.fatalf("write lpa %d: %v", op.LPA, err)
		}
		// A failed write leaves the LPA as it was.
		m.verifyRead(op.LPA)
		return
	}
	p := &modelPage{stream: op.Stream, digest: op.Digest, hasDigest: op.HasDigest, hint: op.Hint, dataLen: op.DataLen}
	if op.Data != nil {
		p.data = append([]byte(nil), op.Data...)
		p.dataLen = len(op.Data)
	}
	m.pages[op.LPA] = p
}

// verifyRead reads lpa and judges the result against the model.
func (m *modelRun) verifyRead(lpa int64) {
	m.t.Helper()
	res, err := m.be.Read(lpa)
	m.judgeRead(lpa, res, err)
}

func (m *modelRun) judgeRead(lpa int64, res storage.ReadResult, err error) {
	m.t.Helper()
	p, ok := m.pages[lpa]
	if !ok {
		if !errors.Is(err, storage.ErrUnknownLPA) {
			m.fatalf("read of unmapped lpa %d: %v", lpa, err)
		}
		return
	}
	if err != nil {
		m.fatalf("read lpa %d: %v", lpa, err)
	}
	approx := m.be.Streams()[p.stream].Approximate()
	if res.Degraded {
		if !approx {
			m.fatalf("lpa %d on protected stream %d reads degraded", lpa, p.stream)
		}
		return
	}
	if res.DataLen != p.dataLen || res.Stream != p.stream {
		m.fatalf("lpa %d reads len %d stream %d, model %d/%d", lpa, res.DataLen, res.Stream, p.dataLen, p.stream)
	}
	if (res.Data == nil) != (p.data == nil) {
		m.fatalf("lpa %d payload presence %v, model %v", lpa, res.Data != nil, p.data != nil)
	}
	if p.data != nil && !bytes.Equal(res.Data, p.data) {
		if !p.exposed {
			m.fatalf("lpa %d reads different bytes with no reported degradation", lpa)
		}
		// Reported SPARE damage crystallized by a relocation.
		p.data = append(p.data[:0], res.Data...)
	}
}

// apply decodes and runs one op.
func (m *modelRun) apply(r *opReader) {
	m.t.Helper()
	approxBefore := m.approxLPAs()
	switch k := r.next() % 16; {
	case k < 4: // Write
		op, want := m.writeOp(r)
		err := m.be.Write(op.LPA, op.Data, op.DataLen, op.Stream)
		m.settleWrite(&op, want, err)
	case k < 8: // multi-queue WriteBatch with digests and lifetime hints
		n := 1 + r.next()%12
		queues, workers := 1+r.next()%4, 1+r.next()%4
		m.wops, m.wfates = m.wops[:0], m.wfates[:0]
		wants := make([]error, n)
		for i := 0; i < n; i++ {
			op, want := m.writeOp(r)
			op.Seq = uint64(i)
			op.Queue = sim.DealQueue(i, n, queues)
			op.Hint = storage.LifetimeHint(r.next() % storage.NumLifetimeHints)
			op.Digest, op.HasDigest = uint64(r.next())*0x9e3779b97f4a7c15, r.next()&1 == 1
			m.wops = append(m.wops, op)
			m.wfates = append(m.wfates, storage.BatchFate{})
			wants[i] = want
		}
		m.be.WriteBatch(m.wops, m.wfates, queues, workers)
		for i := range m.wops {
			m.settleWrite(&m.wops[i], wants[i], m.wfates[i].Err)
		}
	case k < 10: // Trim
		lpa := r.lpa()
		err := m.be.Trim(lpa)
		if _, ok := m.pages[lpa]; !ok {
			if !errors.Is(err, storage.ErrUnknownLPA) {
				m.fatalf("trim of unmapped lpa %d: %v", lpa, err)
			}
			break
		}
		if err != nil {
			m.fatalf("trim lpa %d: %v", lpa, err)
		}
		delete(m.pages, lpa)
	case k == 10: // Read
		m.verifyRead(r.lpa())
	case k == 11: // ReadBatch
		n := 1 + r.next()%16
		queues, workers := 1+r.next()%4, 1+r.next()%4
		m.rops, m.rfates = m.rops[:0], m.rfates[:0]
		for i := 0; i < n; i++ {
			m.rops = append(m.rops, storage.BatchReadOp{LPA: r.lpa(), Seq: uint64(i), Queue: sim.DealQueue(i, n, queues)})
			m.rfates = append(m.rfates, storage.BatchReadFate{})
		}
		m.be.ReadBatch(m.rops, m.rfates, queues, workers)
		for i := range m.rops {
			m.judgeRead(m.rops[i].LPA, m.rfates[i].Res, m.rfates[i].Err)
		}
	case k < 14: // cross-stream Relocate
		lpa, dst := r.lpa(), storage.StreamID(r.next()&1)
		err := m.be.Relocate(lpa, dst)
		p, ok := m.pages[lpa]
		switch {
		case !ok:
			if !errors.Is(err, storage.ErrUnknownLPA) {
				m.fatalf("relocate of unmapped lpa %d: %v", lpa, err)
			}
		case err == nil:
			p.stream = dst
		case errors.Is(err, storage.ErrNoSpace):
			m.verifyRead(lpa)
		default:
			m.fatalf("relocate lpa %d to %d: %v", lpa, dst, err)
		}
	case k == 14: // Scrub
		if _, err := m.be.Scrub(r.next() % 4); err != nil {
			m.fatalf("scrub: %v", err)
		}
	default: // Quarantine the block holding a live page
		lpa := r.lpa()
		ppa, _, _, ok := m.be.Locate(lpa)
		if !ok || m.quarantines >= modelQuarantines {
			break
		}
		m.quarantines++
		if err := m.be.Quarantine(ppa.Block); err != nil {
			m.fatalf("quarantine block %d: %v", ppa.Block, err)
		}
		m.condemned[ppa.Block] = true
	}
	m.noteDegradation(approxBefore)
	m.check()
	m.op++
}

// approxLPAs lists the mapped LPAs on approximate streams.
func (m *modelRun) approxLPAs() []int64 {
	var out []int64
	streams := m.be.Streams()
	for lpa, p := range m.pages {
		if streams[p.stream].Approximate() {
			out = append(out, lpa)
		}
	}
	return out
}

// noteDegradation marks the pages an op may have crystallized: when the
// backend reported new degradation, every page that sat on an
// approximate stream before or after the op is exposed.
func (m *modelRun) noteDegradation(before []int64) {
	st := m.be.Stats()
	if got := st.DegradedReads + st.SalvagedPages; got != m.degraded {
		m.degraded = got
		for _, lpa := range append(before, m.approxLPAs()...) {
			if p, ok := m.pages[lpa]; ok {
				p.exposed = true
			}
		}
	}
}

// check compares the backend's observable state with the model.
func (m *modelRun) check() {
	m.t.Helper()
	for lpa := int64(0); lpa < modelLPAs; lpa++ {
		p, ok := m.pages[lpa]
		if got := m.be.Contains(lpa); got != ok {
			m.fatalf("Contains(%d) = %v, model %v", lpa, got, ok)
		}
		st, sok := m.be.StreamOf(lpa)
		d, dok := m.be.Digest(lpa)
		h, hok := m.be.Hint(lpa)
		if !ok {
			if sok || dok || hok {
				m.fatalf("unmapped lpa %d reports stream %v digest %v hint %v", lpa, sok, dok, hok)
			}
			continue
		}
		if !sok || st != p.stream {
			m.fatalf("StreamOf(%d) = %d/%v, model %d", lpa, st, sok, p.stream)
		}
		if dok != p.hasDigest || (dok && d != p.digest) {
			m.fatalf("Digest(%d) = %x/%v, model %x/%v", lpa, d, dok, p.digest, p.hasDigest)
		}
		if !hok || h != p.hint {
			m.fatalf("Hint(%d) = %v/%v, model %v", lpa, h, hok, p.hint)
		}
	}
	if got := m.be.MappedPages(); got != len(m.pages) {
		m.fatalf("MappedPages = %d, model %d", got, len(m.pages))
	}
	if err := m.be.CheckInvariants(); err != nil {
		m.fatalf("invariants: %v", err)
	}
	for b := range m.condemned {
		info, err := m.chip.Info(b)
		if err != nil {
			m.fatalf("block %d: %v", b, err)
		}
		if info.Retired {
			delete(m.condemned, b)
			m.drained++
		}
	}
}

// runModel runs the op sequence on one backend and returns the run.
func runModel(t testing.TB, kind storage.Kind, ops []byte) *modelRun {
	t.Helper()
	m := newModelRun(t, kind)
	r := &opReader{b: ops}
	for r.more() {
		m.apply(r)
	}
	return m
}

// FuzzBackendModel runs arbitrary op sequences on both backends against
// the reference model. Its committed seeds (testdata/fuzz) include a
// 16 KiB prefix of TestBackendModel's sequence, long enough for GC,
// parking and quarantine drains on both backends.
func FuzzBackendModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 32<<10 {
			ops = ops[:32<<10]
		}
		for _, kind := range storage.Kinds() {
			runModel(t, kind, ops)
		}
	})
}

// TestBackendModel runs a long seeded op sequence on both backends and
// requires it to have exercised the reclaim policy: GC reclaims, at
// least one victim parked on predicted deaths, and a condemned unit
// drained and retired.
func TestBackendModel(t *testing.T) {
	rng := sim.NewRNG(2026)
	ops := make([]byte, 320_000)
	for i := range ops {
		ops[i] = byte(rng.Intn(256))
	}
	for _, kind := range storage.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := runModel(t, kind, ops)
			st := m.be.Stats()
			defers, _ := m.be.DeadSkipStats()
			t.Logf("%d ops: %d GC runs, %d moves, %d parked victims, %d drained condemned units, %d mapped",
				m.op, st.GCRuns, st.GCMoves, defers, m.drained, len(m.pages))
			if st.GCRuns == 0 || st.GCMoves == 0 {
				t.Errorf("GC never reclaimed with moves: %d runs, %d moves", st.GCRuns, st.GCMoves)
			}
			if defers == 0 {
				t.Error("no GC victim was parked on predicted deaths")
			}
			if m.drained == 0 {
				t.Error("no condemned unit was drained and retired")
			}
		})
	}
}

// TestInvariantsCatchTampering corrupts one piece of the state the
// shared Reclaimer holds, on each backend, and requires CheckInvariants
// to reject it. The L2P table is private to storage, so its rows go
// through Lookup and SetMapping; a row with want set must be caught by
// the check whose message contains it.
func TestInvariantsCatchTampering(t *testing.T) {
	lookup := func(r *storage.Reclaimer, lpa int64) storage.Mapping {
		m, ok := r.Lookup(lpa)
		if !ok {
			t.Fatalf("lpa %d unmapped", lpa)
		}
		return m
	}
	rows := []struct {
		name   string
		tamper func(r *storage.Reclaimer)
		want   string
	}{
		{"p2l back-pointer swap", func(r *storage.Reclaimer) {
			a, b := lookup(r, 0), lookup(r, 1)
			pa, pb := r.PageIndex(a.Unit, a.Index), r.PageIndex(b.Unit, b.Index)
			r.P2L[pa], r.P2L[pb] = r.P2L[pb], r.P2L[pa]
		}, ""},
		{"live-count desync", func(r *storage.Reclaimer) { r.Units[lookup(r, 0).Unit].Live++ }, ""},
		{"mapping on an unknown stream", func(r *storage.Reclaimer) {
			m := lookup(r, 0)
			m.Stream = storage.StreamID(len(modelStreams()))
			r.SetMapping(0, m)
		}, ""},
		{"active slot holds a condemned unit", func(r *storage.Reclaimer) { r.Units[r.Active[0]].Condemned = true }, ""},
		{"active unit's bin names another slot", func(r *storage.Reclaimer) { r.Units[r.Active[0]].Bin = storage.HintHot }, ""},
		// A referenced pool entry holding the zero Mapping reads as free:
		// the pool accounting must reject it.
		{"l2p pool entry referenced but empty", func(r *storage.Reclaimer) {
			m := lookup(r, 1)
			m.DataLen = 0
			r.SetMapping(1, m)
		}, "pool entry"},
	}
	for _, kind := range storage.Kinds() {
		for _, row := range rows {
			t.Run(kind.String()+"/"+row.name, func(t *testing.T) {
				m := newModelRun(t, kind)
				for lpa := int64(0); lpa < 2; lpa++ {
					if err := m.be.Write(lpa, payload(64, int(lpa)), 64, 0); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.be.CheckInvariants(); err != nil {
					t.Fatalf("before tampering: %v", err)
				}
				var r *storage.Reclaimer
				switch be := m.be.(type) {
				case *ftl.FTL:
					r = &be.Reclaimer
				case *zns.Backend:
					r = &be.Reclaimer
				default:
					t.Fatalf("unknown backend %T", m.be)
				}
				row.tamper(r)
				err := m.be.CheckInvariants()
				if err == nil {
					t.Fatal("CheckInvariants accepted the tampered state")
				}
				if !strings.Contains(err.Error(), row.want) {
					t.Fatalf("CheckInvariants = %v, want the check naming %q", err, row.want)
				}
			})
		}
	}
}
