package schemes

import (
	"fmt"

	"pair/internal/ecc"
	"pair/internal/spec"
)

// SetEntry is a named, ordered list of scheme specs — the presentation
// sets the experiments iterate (the paper compares scheme *families*, so
// the sets live in the registry next to the schemes themselves).
type SetEntry struct {
	ID          string
	Description string
	Specs       []string
}

var setRegistry = spec.Registry[*SetEntry]{Pkg: "schemes", Kind: "scheme set"}

// RegisterSet adds a named scheme set; it panics on duplicates or specs
// that do not build (registration runs from init functions).
func RegisterSet(e SetEntry) {
	if len(e.Specs) == 0 {
		panic(fmt.Sprintf("schemes: set %q needs at least one spec", e.ID))
	}
	if _, err := Build(e.Specs); err != nil {
		panic(fmt.Sprintf("schemes: set %q: %v", e.ID, err))
	}
	e.Specs = append([]string(nil), e.Specs...)
	setRegistry.Register(e.ID, nil, &e)
}

// SetByID returns the specs of a registered set.
func SetByID(id string) (*SetEntry, error) { return setRegistry.Get(id) }

// SetIDs returns every registered set ID in registration order.
func SetIDs() []string { return setRegistry.IDs() }

// Sets returns every registered set in registration order.
func Sets() []*SetEntry { return setRegistry.All() }

// BuildSet constructs every scheme of a registered set, in order.
func BuildSet(id string) ([]ecc.Scheme, error) {
	e, err := SetByID(id)
	if err != nil {
		return nil, err
	}
	return Build(e.Specs)
}

// MustBuildSet is BuildSet, panicking on error; registration already
// proved every member builds.
func MustBuildSet(id string) []ecc.Scheme {
	s, err := BuildSet(id)
	if err != nil {
		panic(err)
	}
	return s
}
