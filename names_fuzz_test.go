package sos_test

import (
	"encoding"
	"fmt"
	"slices"
	"testing"

	"sos"
)

// FuzzParseNames feeds arbitrary text to the name parsers behind every
// -profile, -backend and -placement flag and config field: ParseProfile,
// ParseBackend and ParsePlacement, and each type's UnmarshalText. None
// may panic; UnmarshalText must agree with its parser and leave the
// receiver untouched on error; and every successful parse must yield a
// declared value that round-trips through String and MarshalText to
// itself. The committed seeds (testdata/fuzz/FuzzParseNames) hold every
// declared name plus padded, mixed-case, unknown and non-ASCII inputs.
func FuzzParseNames(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		checkName(t, s, sos.ParseProfile, sos.Profiles())
		checkName(t, s, sos.ParseBackend, sos.Backends())
		checkName(t, s, sos.ParsePlacement, sos.Placements())
	})
}

// checkName runs one parser's checks on s. declared lists the type's
// values; its last one seeds UnmarshalText's receiver so an error that
// wrote to it shows.
func checkName[T interface {
	comparable
	fmt.Stringer
	encoding.TextMarshaler
}, PT interface {
	*T
	encoding.TextUnmarshaler
}](t *testing.T, s string, parse func(string) (T, error), declared []T) {
	t.Helper()
	v, err := parse(s)
	u := declared[len(declared)-1]
	uerr := PT(&u).UnmarshalText([]byte(s))
	if (err == nil) != (uerr == nil) {
		t.Fatalf("%T: parse(%q) error %v, UnmarshalText error %v", v, s, err, uerr)
	}
	if err != nil {
		if u != declared[len(declared)-1] {
			t.Fatalf("%T: failed UnmarshalText(%q) wrote %v", v, s, u)
		}
		return
	}
	if u != v || !slices.Contains(declared, v) {
		t.Fatalf("%T: %q parses to %v, UnmarshalText to %v; declared %v", v, s, v, u, declared)
	}
	text, err := v.MarshalText()
	if err != nil || string(text) != v.String() {
		t.Fatalf("%T: %v marshals to %q, %v; String is %q", v, v, text, err, v.String())
	}
	if back, err := parse(string(text)); err != nil || back != v {
		t.Fatalf("%T: %q parses back to %v, %v; want %v", v, text, back, err, v)
	}
}
