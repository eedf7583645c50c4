// Package fleetd is the HTTP daemon behind `sossim -serve`: a
// zero-dependency net/http server hosting sos.Fleet instances.
//
// Surface (all JSON unless noted):
//
//	POST   /v1/fleet               create a fleet from a sos.FleetConfig body
//	GET    /v1/fleet               list fleets (sorted by id)
//	POST   /v1/fleet/{id}/advance  step the fleet; body {"days": N};
//	                               ?stream=1 switches to NDJSON progress
//	                               lines followed by the final report
//	GET    /v1/fleet/{id}/report   aggregate report; ?per_shard=1 attaches
//	                               every shard record
//	DELETE /v1/fleet/{id}          drop the fleet
//	GET    /metrics                Prometheus text exposition
//	GET    /healthz                liveness probe ("ok")
//
// Determinism: fleet ids are assigned in creation order ("f1", "f2",
// ...), /metrics renders fleets in sorted-id order through the
// byte-stable obs.Exposition, and every report is produced by the fleet
// engine's worker-count-independent aggregation — so a daemon driven
// through the same request sequence emits byte-identical responses at
// every -parallel setting. The metric family set is shard-free: families
// carry per-fleet labels and quantile labels, never per-shard ones, so
// a 10^6-shard fleet scrapes as cheaply as a 10-shard one.
//
// Admission control: all fleets share one Gate bounding in-flight shard
// replays, so a burst of concurrent advances across fleets degrades to
// queueing rather than memory blow-up.
package fleetd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"sos"
	"sos/internal/obs"
)

// Config assembles a Server.
type Config struct {
	// Workers bounds worker goroutines per advance (<1 = all cores).
	// It overrides the Workers field of every submitted fleet config,
	// so one flag governs the whole daemon.
	Workers int
	// GateSlots bounds in-flight shard replays across every hosted
	// fleet (<1 = 4x Workers, or 64 when Workers is unbounded).
	GateSlots int
	// MaxFleets caps the hosted fleet population (<1 = 64).
	MaxFleets int
	// MaxShards caps the per-fleet shard population (<1 = 1<<20).
	MaxShards int
}

// defaultMaxShards is MaxShards when the config leaves it unset.
const defaultMaxShards = 1 << 20

// maxBodyBytes bounds every POST body. 16 bytes per shard admits a
// create body whose age_mix_days lists one age per shard at the
// default shard cap; a larger body is answered 413.
const maxBodyBytes = 16 * defaultMaxShards

// maxTrainingFiles bounds a create body's training_files: NewFleet
// generates that many corpus files and trains the fleet's classifier
// on them (300 epochs) inside the request, so the field sizes the
// handler's memory and CPU. NewFleet with 100,000 files takes about
// 1.5 s on a 2-vCPU Xeon guest; no fleet caller sets the field (the
// default is 1500) and System callers use at most 8,000.
const maxTrainingFiles = 100_000

// Server hosts fleets over HTTP. Create with New, mount via Handler.
type Server struct {
	cfg  Config
	gate *sos.FleetGate

	mu     sync.Mutex
	fleets map[string]*entry
	nextID int
}

// entry pairs a fleet with its advance lock: advances on one fleet
// serialize (the engine serializes anyway; holding our own lock keeps
// the daemon's queueing visible and testable), while report and metrics
// reads stay concurrent.
type entry struct {
	id string
	f  *sos.Fleet
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.MaxFleets < 1 {
		cfg.MaxFleets = 64
	}
	if cfg.MaxShards < 1 {
		cfg.MaxShards = defaultMaxShards
	}
	if cfg.GateSlots < 1 {
		if cfg.Workers > 0 {
			cfg.GateSlots = 4 * cfg.Workers
		} else {
			cfg.GateSlots = 64
		}
	}
	return &Server{
		cfg:    cfg,
		gate:   sos.NewFleetGate(cfg.GateSlots),
		fleets: make(map[string]*entry),
	}
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet", s.handleCreate)
	mux.HandleFunc("GET /v1/fleet", s.handleList)
	mux.HandleFunc("POST /v1/fleet/{id}/advance", s.handleAdvance)
	mux.HandleFunc("GET /v1/fleet/{id}/report", s.handleReport)
	mux.HandleFunc("DELETE /v1/fleet/{id}", s.handleDelete)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// decodeBody decodes a POST body into v: one JSON value of at most
// maxBodyBytes, without unknown fields or trailing data. On failure it
// answers the request (413 for an oversized body, 400 otherwise) and
// returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	trailing := false
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		trailing = true
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, tooBig.Limit)
	case trailing:
		httpError(w, http.StatusBadRequest, "bad %s: data after the JSON value", what)
	default:
		httpError(w, http.StatusBadRequest, "bad %s: %v", what, err)
	}
	return false
}

func (s *Server) lookup(id string) (*entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.fleets[id]
	return e, ok
}

// CreateResponse answers POST /v1/fleet.
type CreateResponse struct {
	ID     string `json:"id"`
	Shards int    `json:"shards"`
	Seed   uint64 `json:"seed"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg sos.FleetConfig
	if !decodeBody(w, r, "fleet config", &cfg) {
		return
	}
	if cfg.Shards > s.cfg.MaxShards {
		httpError(w, http.StatusBadRequest, "shards %d exceeds daemon cap %d", cfg.Shards, s.cfg.MaxShards)
		return
	}
	if cfg.TrainingFiles > maxTrainingFiles {
		httpError(w, http.StatusBadRequest, "training_files %d exceeds daemon cap %d", cfg.TrainingFiles, maxTrainingFiles)
		return
	}
	// Building a fleet trains its classifier, so a create at the fleet
	// cap is refused before that work; the check repeats under the lock
	// at insert, since concurrent creates may fill the cap meanwhile.
	s.mu.Lock()
	full := len(s.fleets) >= s.cfg.MaxFleets
	s.mu.Unlock()
	if full {
		httpError(w, http.StatusTooManyRequests, "fleet cap %d reached", s.cfg.MaxFleets)
		return
	}
	// The daemon owns parallelism and backpressure: one flag governs
	// every fleet, and all fleets share one admission gate.
	cfg.Workers = s.cfg.Workers
	cfg.Gate = s.gate
	f, err := sos.NewFleet(cfg)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	if len(s.fleets) >= s.cfg.MaxFleets {
		s.mu.Unlock()
		httpError(w, http.StatusTooManyRequests, "fleet cap %d reached", s.cfg.MaxFleets)
		return
	}
	s.nextID++
	id := fmt.Sprintf("f%d", s.nextID)
	s.fleets[id] = &entry{id: id, f: f}
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, CreateResponse{ID: id, Shards: f.Shards(), Seed: f.Config().Seed})
}

// ListEntry is one row of GET /v1/fleet.
type ListEntry struct {
	ID       string `json:"id"`
	Shards   int    `json:"shards"`
	Advances int    `json:"advances"`
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	list := []ListEntry{}
	for _, e := range s.sorted() {
		list = append(list, ListEntry{ID: e.id, Shards: e.f.Shards(), Advances: e.f.Advances()})
	}
	writeJSON(w, http.StatusOK, list)
}

// AdvanceRequest is the POST /v1/fleet/{id}/advance body.
type AdvanceRequest struct {
	Days int `json:"days"`
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no fleet %q", r.PathValue("id"))
		return
	}
	var req AdvanceRequest
	if !decodeBody(w, r, "advance request", &req) {
		return
	}
	if req.Days < 1 {
		httpError(w, http.StatusBadRequest, "days must be >= 1, got %d", req.Days)
		return
	}
	if r.URL.Query().Get("stream") == "" {
		rep, err := e.f.Advance(req.Days)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, rep)
		return
	}

	// Streaming: one compact NDJSON line per admission batch, then the
	// final report as the last line. Progress callbacks run on the
	// advance goroutine in deterministic batch order, so the stream is
	// byte-identical at every worker count.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	rep, err := e.f.AdvanceProgress(req.Days, func(p sos.FleetProgress) {
		enc.Encode(struct {
			Progress sos.FleetProgress `json:"progress"`
		}{p})
		if flusher != nil {
			flusher.Flush()
		}
	})
	if err != nil {
		enc.Encode(map[string]string{"error": err.Error()})
		return
	}
	enc.Encode(struct {
		Report *sos.FleetReport `json:"report"`
	}{rep})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no fleet %q", r.PathValue("id"))
		return
	}
	rep := e.f.Report(r.URL.Query().Get("per_shard") != "")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	rep.WriteJSON(w)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.fleets[id]
	delete(s.fleets, id)
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no fleet %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// sorted snapshots the fleet table in id order (creation order for the
// daemon's f<N> ids would equal insertion order, but sorting keeps the
// contract independent of id provenance).
func (s *Server) sorted() []*entry {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.fleets))
	for _, e := range s.fleets {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].id, entries[j].id
		if len(a) != len(b) { // f2 < f10 under length-then-lex order
			return len(a) < len(b)
		}
		return a < b
	})
	return entries
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	e := obs.NewExposition()
	entries := s.sorted()
	// Always at least one sample, so /metrics validates even on an
	// empty daemon.
	e.Gauge("sos_fleetd_fleets", "Hosted fleet count.", float64(len(entries)))
	for _, en := range entries {
		rep := en.f.Report(false)
		fl := obs.Label{Name: "fleet", Value: en.id}
		e.GaugeKV("sos_fleet_shards", "Shard population.", float64(rep.Shards), fl)
		e.GaugeKV("sos_fleet_advances", "Completed advance calls.", float64(rep.Advances), fl)
		e.GaugeKV("sos_fleet_days_max", "Most-advanced shard day count.", float64(rep.DaysMax), fl)
		e.GaugeKV("sos_fleet_expired", "Shards whose device wore out.", float64(rep.Totals.Expired), fl)
		e.CounterKV("sos_fleet_events_total", "Workload events replayed.", float64(rep.Totals.Events), fl)
		e.CounterKV("sos_fleet_reads_total", "Device page reads.", float64(rep.Totals.Reads), fl)
		e.CounterKV("sos_fleet_writes_total", "Device page writes.", float64(rep.Totals.Writes), fl)
		e.CounterKV("sos_fleet_auto_deleted_total", "Files reclaimed by auto-delete.", float64(rep.Totals.AutoDeleted), fl)
		e.CounterKV("sos_fleet_transcoded_total", "Files transcoded in place.", float64(rep.Totals.Transcoded), fl)
		e.GaugeKV("sos_fleet_capacity_bytes", "Fleet-wide device capacity.", float64(rep.Totals.CapacityBytes), fl)
		e.GaugeKV("sos_fleet_used_bytes", "Fleet-wide used bytes.", float64(rep.Totals.UsedBytes), fl)
		e.GaugeKV("sos_fleet_embodied_kg", "Embodied carbon of the fleet.", rep.Carbon.EmbodiedKg, fl)
		e.GaugeKV("sos_fleet_baseline_kg", "Embodied carbon of the conventional baseline.", rep.Carbon.BaselineKg, fl)
		e.GaugeKV("sos_fleet_saved_frac", "Embodied-carbon saving fraction.", rep.Carbon.SavedFrac, fl)
		quant := func(name, help string, q sos.FleetQuantiles) {
			for _, p := range []struct {
				label string
				v     float64
			}{
				{"min", q.Min}, {"p50", q.P50}, {"p90", q.P90},
				{"p99", q.P99}, {"max", q.Max}, {"mean", q.Mean},
			} {
				e.GaugeKV(name, help, p.v, fl, obs.Label{Name: "q", Value: p.label})
			}
		}
		quant("sos_fleet_write_amp", "Per-shard write amplification quantiles.", rep.Dist.WriteAmp)
		quant("sos_fleet_wear_max_frac", "Per-shard max wear fraction quantiles.", rep.Dist.MaxWearFrac)
		quant("sos_fleet_used_frac", "Per-shard capacity utilisation quantiles.", rep.Dist.UsedFrac)
		quant("sos_fleet_lifetime_days", "Expired-shard lifetime quantiles.", rep.Dist.LifetimeDays)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e.WriteTo(w)
}

// SmokeConfig is the canonical 64-shard fleet the serve-smoke tier (and
// the daemon goldens) exercise: heterogeneous ages, a rolling storm
// window, and stragglers, sized to advance 7 days in about a second.
func SmokeConfig() sos.FleetConfig {
	return sos.FleetConfig{
		Shards:         64,
		Seed:           21,
		AgeMixDays:     []int{0, 30, 90},
		StormEvery:     8,
		StragglerEvery: 16,
	}
}
