// Package sos is the public entry point to the Sustainability-Oriented
// Storage library — a reproduction of "Degrading Data to Save the
// Planet" (HotOS '23). It assembles the full stack (flash chip, FTL,
// device, filesystem, classifier, policy engine) from one Config and
// runs workloads against it.
//
// The quickest path:
//
//	sys, err := sos.New(sos.Config{})           // SOS device, defaults
//	rep, err := sys.RunPersonal(365, 0)          // one year of phone use
//	fmt.Println(rep.FinalSmart.MaxWearFrac)
//
// Three device profiles are built in: ProfileSOS (the paper's split
// pseudo-QLC/PLC design on PLC silicon), and the ProfileTLC /
// ProfileQLC baselines (conventional single-partition devices). All
// subsystems are deterministic given Config.Seed.
package sos

import (
	"errors"
	"fmt"
	"strings"

	"sos/internal/carbon"
	"sos/internal/classify"
	"sos/internal/core"
	"sos/internal/device"
	"sos/internal/flash"
	"sos/internal/fs"
	"sos/internal/obs"
	"sos/internal/sim"
	"sos/internal/storage"
	"sos/internal/workload"
)

// Backend selects the translation layer mounted under the device: the
// device-side multi-stream FTL (the default) or the host-side FTL over
// a zoned namespace. Both are §4.3 co-design points and present the
// same contract; re-exported so callers need not import internals.
type Backend = storage.Kind

// Backend kinds.
const (
	BackendFTL = storage.KindFTL
	BackendZNS = storage.KindZNS
)

// Backends returns every backend kind in declaration order.
func Backends() []Backend { return storage.Kinds() }

// ParseBackend maps a backend name ("ftl", "zns"; case- and
// space-insensitive) to its Backend, mirroring ParseProfile. It is the
// single parser behind every -backend flag and config file: Backend's
// TextUnmarshaler (used via flag.TextVar in sossim and carbonreport,
// and by JSON fleet configs) routes through the same name set.
func ParseBackend(s string) (Backend, error) { return storage.ParseKind(s) }

// Placement selects how lifetime hints are derived for new writes:
// off (the default — byte-identical to a build without hints), binary
// (reuse the SYS/SPARE score as a two-bin hint), or longevity (the
// trained days-to-death regressor quantized into deathtime bins).
// Re-exported so callers need not import internals.
type Placement = storage.Placement

// Placement policies.
const (
	PlacementOff       = storage.PlacementOff
	PlacementBinary    = storage.PlacementBinary
	PlacementLongevity = storage.PlacementLongevity
)

// Placements returns every placement policy in declaration order.
func Placements() []Placement { return storage.Placements() }

// ParsePlacement maps a placement name ("off", "binary", "longevity";
// case- and space-insensitive) to its Placement, mirroring
// ParseBackend. It is the single parser behind every -placement flag:
// Placement's TextUnmarshaler routes through the same name set.
func ParsePlacement(s string) (Placement, error) { return storage.ParsePlacement(s) }

// Profile selects a device build.
type Profile int

// Device profiles.
const (
	// ProfileSOS is the paper's design: PLC silicon split into a
	// pseudo-QLC SYS partition and an approximate PLC SPARE partition.
	ProfileSOS Profile = iota
	// ProfileTLC is the conventional baseline on TLC.
	ProfileTLC
	// ProfileQLC is the denser conventional baseline on QLC.
	ProfileQLC
)

func (p Profile) String() string {
	switch p {
	case ProfileSOS:
		return "sos"
	case ProfileTLC:
		return "tlc"
	case ProfileQLC:
		return "qlc"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// Profiles returns every built-in profile in declaration order.
func Profiles() []Profile {
	return []Profile{ProfileSOS, ProfileTLC, ProfileQLC}
}

// ParseProfile maps a profile name ("sos", "tlc", "qlc"; case- and
// space-insensitive) to its Profile. It is the single parser behind
// every -profile flag and config file.
func ParseProfile(s string) (Profile, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sos":
		return ProfileSOS, nil
	case "tlc":
		return ProfileTLC, nil
	case "qlc":
		return ProfileQLC, nil
	default:
		return 0, fmt.Errorf("sos: unknown profile %q (want sos, tlc, or qlc)", s)
	}
}

// MarshalText renders the profile name, so Profile round-trips through
// text-based encodings (flag.TextVar, JSON object keys, config files).
func (p Profile) MarshalText() ([]byte, error) {
	switch p {
	case ProfileSOS, ProfileTLC, ProfileQLC:
		return []byte(p.String()), nil
	default:
		return nil, fmt.Errorf("sos: unknown profile %d", int(p))
	}
}

// UnmarshalText parses a profile name in place.
func (p *Profile) UnmarshalText(text []byte) error {
	parsed, err := ParseProfile(string(text))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}

// Config assembles a System.
type Config struct {
	// Profile selects the device build (default ProfileSOS).
	Profile Profile
	// Backend selects the translation layer (default BackendFTL). The
	// whole stack above the device is backend-agnostic, so every
	// profile runs over either.
	Backend Backend
	// Geometry of the flash chip; the zero value selects a small
	// simulation-friendly default (64 MiB native).
	Geometry flash.Geometry
	// Seed drives every random subsystem (default 1).
	Seed uint64
	// Threshold is the classifier demotion confidence (default 0.7).
	Threshold float64
	// CloudBackup enables degraded-file repair from pristine copies.
	CloudBackup bool
	// TrainingFiles sizes the synthetic classifier corpus
	// (default 8000).
	TrainingFiles int
	// Classifier overrides the default logistic regression.
	Classifier classify.Classifier
	// Prefs, when set, biases classification with the user's setup
	// preferences (§4.4).
	Prefs *classify.Prefs
	// TranscodeBeforeDelete shrinks media in place under capacity
	// pressure before resorting to deletion (§4.5).
	TranscodeBeforeDelete bool
	// Queues is the submission-queue count for batched writes, Planes
	// the chip's independently lockable plane count, and Workers the
	// goroutine bound for a batch's parallel phases (defaults 1 /
	// flash.DefaultPlanes / 1). All three change only wall-clock time:
	// simulated results are byte-identical at every setting.
	Queues  int
	Planes  int
	Workers int
	// ReadWorkers bounds the goroutines the batched read datapath may
	// use for per-plane reads and per-queue decode (default 1, fully
	// serial). Like Workers it changes only wall-clock time: simulated
	// results are byte-identical at every setting.
	ReadWorkers int
	// Observe enables the observability subsystem: a trace ring buffer
	// and per-operation histograms wired through the device, FTL, and
	// policy engine. Disabled (the default) the stack carries no
	// recorder and instrumentation costs one nil check per hook.
	// Recording never perturbs determinism: runs with and without a
	// recorder are byte-identical.
	Observe bool
	// TraceCap overrides the trace ring capacity in events
	// (default obs.DefaultTraceCapacity). Only meaningful with Observe.
	TraceCap int
	// Audit enables the end-to-end integrity auditor: write-time page
	// digests are verified by a budgeted background pass whose findings
	// drive cloud repair, proactive transcoding, and auto-delete
	// ordering. Disabled (the default) the system's output is
	// byte-identical to a build without the auditor.
	Audit bool
	// ScrubBudget is the exact number of slice reads per audit pass
	// (default audit.DefaultBudget). Only meaningful with Audit.
	ScrubBudget int
	// Placement selects the lifetime-hint policy for new writes
	// (default PlacementOff). With PlacementLongevity, build trains a
	// days-to-death regressor on a synthetic lifetimed corpus (its own
	// RNG stream, so the classifier corpus is untouched) and calibrates
	// deathtime bins from the training lifetimes. Off is byte-identical
	// to a build without placement support.
	Placement Placement
}

// System is an assembled SOS (or baseline) stack. The Clock, Device,
// FS, Engine, and Classifier fields are the composition handles for
// driving a system by hand (create files, advance time, trigger
// reviews); read telemetry through Snapshot(), never by poking fields.
type System struct {
	Config     Config
	Clock      *sim.Clock
	Device     *device.Device
	FS         *fs.FS
	Engine     *core.Engine
	Classifier classify.Classifier
	// obs is the shared observability recorder, nil unless observing;
	// Snapshot() and Events() read it.
	obs *obs.Recorder
}

// Events returns the recorded telemetry event trace, or nil when the
// system was built without WithObserve / Config.Observe.
func (s *System) Events() []obs.Event {
	if s.obs == nil {
		return nil
	}
	return s.obs.Events()
}

// New builds a System from a flat Config. It is equivalent to
// NewSystem(WithConfig(cfg)); new code should prefer the options form.
func New(cfg Config) (*System, error) {
	return NewSystem(WithConfig(cfg))
}

// build assembles the stack; both construction paths funnel here.
func build(cfg Config) (*System, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.TrainingFiles == 0 {
		cfg.TrainingFiles = 8000
	}
	if cfg.Geometry == (flash.Geometry{}) {
		cfg.Geometry = device.DefaultGeometry()
	}
	clock := &sim.Clock{}
	var rec *obs.Recorder
	if cfg.Observe {
		rec = obs.New(obs.Config{TraceCapacity: cfg.TraceCap, Clock: clock})
	}

	// Build the device directly (same parameters as device.NewSOS /
	// device.NewBaseline) so the recorder threads through every layer.
	dcfg := device.Config{
		Geometry:       cfg.Geometry,
		Backend:        cfg.Backend,
		Clock:          clock,
		Seed:           cfg.Seed,
		EnduranceSigma: 0.1,
		Queues:         cfg.Queues,
		Planes:         cfg.Planes,
		Workers:        cfg.Workers,
		ReadWorkers:    cfg.ReadWorkers,
		Obs:            rec,
	}
	switch cfg.Profile {
	case ProfileSOS:
		dcfg.Tech = flash.PLC
		dcfg.Streams = device.SOSStreams()
	case ProfileTLC:
		dcfg.Tech = flash.TLC
		dcfg.Streams = device.BaselineStreams(flash.TLC)
	case ProfileQLC:
		dcfg.Tech = flash.QLC
		dcfg.Streams = device.BaselineStreams(flash.QLC)
	default:
		return nil, fmt.Errorf("sos: unknown profile %d", int(cfg.Profile))
	}
	dev, err := device.New(dcfg)
	if err != nil {
		return nil, err
	}
	fsys, err := fs.New(dev)
	if err != nil {
		return nil, err
	}

	cls := cfg.Classifier
	if cls == nil {
		corpus, err := classify.GenerateCorpus(sim.NewRNG(cfg.Seed+0xc0de), cfg.TrainingFiles)
		if err != nil {
			return nil, err
		}
		lr := &classify.Logistic{}
		if err := lr.Train(corpus.Metas, corpus.Labels); err != nil {
			return nil, err
		}
		cls = lr
	}
	if cfg.Prefs != nil {
		cls = classify.WithPrefs(cls, *cfg.Prefs)
	}

	var lifetime classify.LifetimePredictor
	var bins classify.Bins
	if cfg.Placement == PlacementLongevity {
		// Lifetimes ride a dedicated corpus + RNG stream so the
		// classifier's training draws (seed+0xc0de) are untouched.
		lrng := sim.NewRNG(cfg.Seed + 0x11fe)
		corpus, err := classify.GenerateCorpus(lrng, cfg.TrainingFiles)
		if err != nil {
			return nil, err
		}
		corpus.GenerateLifetimes(lrng)
		ll := &classify.LinearLifetime{}
		if err := ll.TrainLifetime(corpus.Metas, corpus.LifetimeDays); err != nil {
			return nil, err
		}
		if bins, err = classify.CalibrateBins(corpus.LifetimeDays); err != nil {
			return nil, err
		}
		lifetime = ll
	}

	eng, err := core.New(core.Config{
		FS:                    fsys,
		Classifier:            cls,
		Threshold:             cfg.Threshold,
		CloudBackup:           cfg.CloudBackup,
		TranscodeBeforeDelete: cfg.TranscodeBeforeDelete,
		Obs:                   rec,
		Audit:                 cfg.Audit,
		AuditBudget:           cfg.ScrubBudget,
		AuditSeed:             cfg.Seed + 0xa0d17,
		Placement:             cfg.Placement,
		Lifetime:              lifetime,
		LifetimeBins:          bins,
	})
	if err != nil {
		return nil, err
	}
	return &System{
		Config: cfg, Clock: clock, Device: dev, FS: fsys,
		Engine: eng, Classifier: cls, obs: rec,
	}, nil
}

// RunPersonal runs `days` of the default personal-device workload, then
// an optional idle horizon (retention keeps degrading data).
func (s *System) RunPersonal(days int, horizon sim.Time) (*core.RunReport, error) {
	if days <= 0 {
		return nil, errors.New("sos: non-positive days")
	}
	cfg := workload.DefaultPersonalConfig(days)
	cfg.Seed = s.Config.Seed + 0x7ead
	gen, err := workload.NewPersonal(cfg)
	if err != nil {
		return nil, err
	}
	return core.Run(s.Engine, gen, core.RunConfig{Horizon: horizon})
}

// Run drives the system with an arbitrary workload generator.
func (s *System) Run(gen workload.Generator, rc core.RunConfig) (*core.RunReport, error) {
	return core.Run(s.Engine, gen, rc)
}

// EmbodiedKg returns the embodied-carbon estimate of this System's
// device at its nominal capacity, per its profile's partition layout.
func (s *System) EmbodiedKg() (float64, error) {
	capGB := float64(s.Device.CapacityBytes()) / 1e9
	switch s.Config.Profile {
	case ProfileSOS:
		return carbon.DeviceEmbodiedKg(capGB, carbon.SOSLayout())
	case ProfileTLC:
		return carbon.DeviceEmbodiedKg(capGB, []carbon.PartitionSpec{
			{Mode: flash.NativeMode(flash.TLC), CapacityFrac: 1},
		})
	case ProfileQLC:
		return carbon.DeviceEmbodiedKg(capGB, []carbon.PartitionSpec{
			{Mode: flash.NativeMode(flash.QLC), CapacityFrac: 1},
		})
	default:
		return 0, fmt.Errorf("sos: unknown profile %d", int(s.Config.Profile))
	}
}
