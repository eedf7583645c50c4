package storage

import (
	"fmt"
	"strings"
)

// LifetimeHint is a predicted-deathtime bin attached to a write. The
// classifier's lifetime regressor quantizes its predicted days-to-death
// into these bins; allocators co-locate same-bin data so whole blocks
// (or zones) die together and GC relocates less — the longevity-
// placement idea of Choi & Jung. HintNone is the zero value and the
// contract's compatibility anchor: unhinted writes behave exactly as
// they did before hints existed, byte for byte.
type LifetimeHint uint8

// Lifetime bins, ordered by predicted time to death.
const (
	// HintNone marks an unhinted write (placement off, or a caller
	// predating the hint contract).
	HintNone LifetimeHint = iota
	// HintHot data is predicted to die (TRIM, auto-delete, overwrite)
	// soon — within days.
	HintHot
	// HintWarm data is predicted to die within weeks.
	HintWarm
	// HintCold data is predicted to die within months.
	HintCold
	// HintImmortal data is predicted to outlive the device's horizon.
	HintImmortal

	// NumLifetimeHints is the bin count including HintNone; allocators
	// size per-(stream, bin) state with it.
	NumLifetimeHints = int(HintImmortal) + 1
)

func (h LifetimeHint) String() string {
	switch h {
	case HintNone:
		return "none"
	case HintHot:
		return "hot"
	case HintWarm:
		return "warm"
	case HintCold:
		return "cold"
	case HintImmortal:
		return "immortal"
	default:
		return fmt.Sprintf("LifetimeHint(%d)", int(h))
	}
}

// Placement names a host placement policy: how (and whether) the engine
// derives lifetime hints for new writes.
type Placement int

// Placement policies.
const (
	// PlacementOff writes everything unhinted — the pre-hint behavior,
	// byte-identical to builds without the hint contract.
	PlacementOff Placement = iota
	// PlacementBinary derives two bins from the binary SYS/SPARE
	// classifier score: confident-spare data (predicted expendable,
	// hence deleted soon) is hot, the rest cold.
	PlacementBinary
	// PlacementLongevity derives bins from the predicted-lifetime
	// regressor quantized by calibrated deathtime thresholds.
	PlacementLongevity
)

func (p Placement) String() string {
	switch p {
	case PlacementOff:
		return "off"
	case PlacementBinary:
		return "binary"
	case PlacementLongevity:
		return "longevity"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Placements returns every placement policy in declaration order.
func Placements() []Placement {
	return []Placement{PlacementOff, PlacementBinary, PlacementLongevity}
}

// ParsePlacement maps a placement name ("off", "binary", "longevity";
// case- and space-insensitive) to its Placement. It is the single
// parser behind every -placement flag and config file.
func ParsePlacement(s string) (Placement, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "off":
		return PlacementOff, nil
	case "binary":
		return PlacementBinary, nil
	case "longevity":
		return PlacementLongevity, nil
	default:
		return 0, fmt.Errorf("storage: unknown placement %q (want off, binary, or longevity)", s)
	}
}

// MarshalText renders the placement name, so Placement round-trips
// through text-based encodings (flag.TextVar, JSON, config files).
func (p Placement) MarshalText() ([]byte, error) {
	switch p {
	case PlacementOff, PlacementBinary, PlacementLongevity:
		return []byte(p.String()), nil
	default:
		return nil, fmt.Errorf("storage: unknown placement %d", int(p))
	}
}

// UnmarshalText parses a placement name in place.
func (p *Placement) UnmarshalText(text []byte) error {
	parsed, err := ParsePlacement(string(text))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}
