package faults

// This file is the scenario registry: field-realistic fault scenarios as
// self-registering entries, mirroring the scheme registry in
// internal/schemes. A scenario is a seeded per-trial corruption of one
// rank access — from inherent weak-cell noise through retention-failure
// clusters, row-hammer disturbance and variable-retention-time flicker up
// to whole-chip kills — addressable by a spec string (see
// scenariospec.go) so the -faults flag, the F13 experiment table and the
// differential strength/weakness suite all draw from one source of truth.

import (
	"fmt"
	"math/rand"
	"strings"

	"pair/internal/bitvec"
	"pair/internal/dram"
	"pair/internal/spec"
)

// ChipAccess is a scenario's view of one chip's contribution to a
// protected access, mirroring the three storage regions of ecc.ChipImage
// (which this package cannot import without a cycle):
//
//   - Data: the bits that cross the DQ pins during the burst.
//   - OnDie: redundancy that never leaves the die (in-DRAM check bits).
//     Array faults reach it; interface faults never do.
//   - Xfer: redundancy that crosses the pins on extension beats.
//
// Unused regions are nil; scenarios must tolerate any of the three being
// absent (the faultmap CLI renders Data-only accesses).
type ChipAccess struct {
	Data  *dram.Burst
	OnDie *bitvec.Vec
	Xfer  *dram.Burst
}

// TotalBits returns the number of stored bits the access exposes.
func (a *ChipAccess) TotalBits() int {
	n := 0
	if a.Data != nil {
		n += a.Data.Pins * a.Data.Beats
	}
	if a.OnDie != nil {
		n += a.OnDie.Len()
	}
	if a.Xfer != nil {
		n += a.Xfer.Pins * a.Xfer.Beats
	}
	return n
}

// flipBit flips stored bit idx, indexing Data, then OnDie, then Xfer —
// the same region order ecc uses for its global stored-bit indices.
func (a *ChipAccess) flipBit(idx int) {
	if a.Data != nil {
		n := a.Data.Pins * a.Data.Beats
		if idx < n {
			a.Data.Flip(idx%a.Data.Pins, idx/a.Data.Pins)
			return
		}
		idx -= n
	}
	if a.OnDie != nil {
		if idx < a.OnDie.Len() {
			a.OnDie.Flip(idx)
			return
		}
		idx -= a.OnDie.Len()
	}
	a.Xfer.Flip(idx%a.Xfer.Pins, idx/a.Xfer.Pins)
}

// Scenario is one registered fault scenario instance. Inject corrupts a
// rank access (one ChipAccess per chip, data chips first) using only the
// given RNG, and returns the number of bit positions it XORed. An
// instance holds no per-trial state, so one Scenario value is safe for
// concurrent use from campaign shard workers, and equal (spec, RNG
// stream) always produce the same corruption — the determinism contract
// the campaign engine extends down to the fault layer.
type Scenario interface {
	// Spec returns the canonical spec string that rebuilds this scenario
	// (parse∘canonical = identity); campaign labels embed it.
	Spec() string
	// Inject applies one trial's corruption and returns the flip count.
	Inject(rng *rand.Rand, access []ChipAccess) int
}

// InjectFunc is the corruption hook a scenario constructor returns.
type InjectFunc func(rng *rand.Rand, access []ChipAccess) int

// ScenarioEntry is one registered scenario: identity, documentation and
// the constructor hook that validates options and builds the injector.
type ScenarioEntry struct {
	// ID is the canonical scenario identifier ("retention", "pin", ...).
	ID string
	// Description is a one-line summary for listings.
	Description string
	// Options documents the option keys the hook accepts; specs using
	// any other key are rejected before the hook runs.
	Options []spec.OptionDoc
	// New builds the injector from the spec's validated options.
	New func(opts map[string]string) (InjectFunc, error)
}

// registry holds the scenarios; scenario specs may compose but never
// name an organization.
var registry = spec.Registry[*ScenarioEntry]{Pkg: "faults", Kind: "scenario", Compose: true}

// RegisterScenario adds a scenario to the registry. It panics on a
// duplicate or malformed entry — registration happens in init functions,
// where a panic is a build-time error.
func RegisterScenario(e ScenarioEntry) {
	if e.New == nil {
		panic(fmt.Sprintf("faults: scenario %q needs a constructor", e.ID))
	}
	registry.Register(e.ID, e.Options, &e)
}

// LookupScenario returns the entry registered under id.
func LookupScenario(id string) (*ScenarioEntry, bool) { return registry.Lookup(id) }

// ScenarioIDs returns every registered scenario ID in registration order.
func ScenarioIDs() []string { return registry.IDs() }

// AllScenarios returns every registered entry in registration order.
func AllScenarios() []*ScenarioEntry { return registry.All() }

// scenarioFunc is the Scenario implementation every registry build
// returns: a canonical spec string plus the constructor's injector.
type scenarioFunc struct {
	spec   string
	inject InjectFunc
}

func (s *scenarioFunc) Spec() string { return s.spec }

func (s *scenarioFunc) Inject(rng *rand.Rand, access []ChipAccess) int {
	return s.inject(rng, access)
}

// Compose combines scenarios into one that injects each in order per
// trial — the programmatic form of the compose(a,b,...) spec. A single
// scenario is returned unchanged; an empty list composes to nil (no
// ambient corruption).
func Compose(scs ...Scenario) Scenario {
	switch len(scs) {
	case 0:
		return nil
	case 1:
		return scs[0]
	}
	return composed(scs)
}

// composed injects every scenario in order under the spec
// compose(spec,spec,...).
func composed(scs []Scenario) Scenario {
	parts := make([]string, len(scs))
	for i, sc := range scs {
		parts[i] = sc.Spec()
	}
	return &scenarioFunc{spec: spec.Compose + "(" + strings.Join(parts, ",") + ")", inject: func(rng *rand.Rand, access []ChipAccess) int {
		n := 0
		for _, sc := range scs {
			n += sc.Inject(rng, access)
		}
		return n
	}}
}
