package faults

import (
	"fmt"

	"pair/internal/spec"
)

// Fault-scenario specs use the shared grammar of package spec, without
// an @org:
//
//	name[:key=val,...]
//	compose(spec,spec,...)
//
// where name is a registered scenario ID and the key=val options are
// interpreted by the scenario's constructor hook. compose nests freely.
// Examples:
//
//	retention:pop=1e-6,cluster=2.5
//	rowhammer:radius=1,rate=0.3
//	compose(pin,inherent:ber=1e-5)
//
// The canonical form (String) sorts option keys and keeps the raw option
// values; parsing the canonical form reproduces the spec exactly, which
// keeps campaign labels embedding a spec stable.

// ScenarioSpec is a parsed fault-scenario spec. Leaf specs carry an ID
// and options; compose specs carry ID "compose" and the child specs.
type ScenarioSpec struct{ spec.Spec }

// ParseFaultSpec parses the fault-scenario spec grammar. It only
// validates the syntax; Build resolves the ID and options against the
// registry.
func ParseFaultSpec(s string) (ScenarioSpec, error) {
	p, err := registry.Parse(s)
	return ScenarioSpec{p}, err
}

// Build resolves the spec against the scenario registry and constructs
// the scenario. The built scenario's Spec() is this spec's canonical
// form.
func (s ScenarioSpec) Build() (Scenario, error) {
	if s.ID == spec.Compose {
		children := make([]Scenario, len(s.Parts))
		for i, p := range s.Parts {
			c, err := ScenarioSpec{p}.Build()
			if err != nil {
				return nil, err
			}
			children[i] = c
		}
		return composed(children), nil
	}
	e, err := registry.Resolve(s.Spec)
	if err != nil {
		return nil, err
	}
	fn, err := e.New(s.Options)
	if err != nil {
		return nil, fmt.Errorf("faults: building scenario %q: %w", s.String(), err)
	}
	return &scenarioFunc{spec: s.String(), inject: fn}, nil
}

// NewScenario parses a spec string and builds the scenario it describes.
// Errors enumerate the valid scenario IDs or option keys, all generated
// from the registry.
func NewScenario(spec string) (Scenario, error) {
	s, err := ParseFaultSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.Build()
}

// MustScenario is NewScenario, panicking on error; for specs known at
// compile time.
func MustScenario(spec string) Scenario {
	sc, err := NewScenario(spec)
	if err != nil {
		panic(err)
	}
	return sc
}

// BuildScenarios constructs every spec in the list, stopping at the
// first error.
func BuildScenarios(specs []string) ([]Scenario, error) {
	out := make([]Scenario, 0, len(specs))
	for _, spec := range specs {
		sc, err := NewScenario(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// ParseFaultSpecList splits a comma/whitespace-separated spec list (see
// SplitFaultSpecList) and builds each entry.
func ParseFaultSpecList(list string) ([]Scenario, error) {
	specs, err := SplitFaultSpecList(list)
	if err != nil {
		return nil, err
	}
	return BuildScenarios(specs)
}

// SplitFaultSpecList splits a comma/whitespace-separated scenario spec
// list into its individual spec strings with spec.SplitList's comma
// rule, validating only the syntax of each — the wire-format helper
// mirroring schemes.SplitSpecList for remote submission.
func SplitFaultSpecList(list string) ([]string, error) { return registry.SplitList(list) }
