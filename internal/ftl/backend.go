package ftl

import (
	"sos/internal/storage"
)

// The multi-stream FTL is the storage backend the paper's device-side
// placement interface compiles down to.
var _ storage.Backend = (*FTL)(nil)

// Name identifies the backend kind for telemetry and the -backend flag.
func (f *FTL) Name() string { return "ftl" }

// Recover implements storage.Backend: it remounts a fresh FTL with the
// receiver's configuration over the receiver's medium and rebuilds the
// mapping tables from OOB tags. The receiver itself is the crashed
// instance and is not consulted beyond its configuration.
func (f *FTL) Recover() (storage.Backend, error) {
	nf, err := Recover(f.chip, f.origCfg)
	if err != nil {
		return nil, err
	}
	return nf, nil
}

// CheckInvariants implements storage.Backend over the package-level
// checker.
func (f *FTL) CheckInvariants() error { return CheckInvariants(f) }
