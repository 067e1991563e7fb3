package schemes

import (
	"fmt"
	"slices"
	"strings"

	"pair/internal/ecc"
	"pair/internal/spec"
)

// Spec is a parsed scheme spec: name[@org][:key=val,...] in the shared
// grammar of package spec.
type Spec = spec.Spec

// ParseSpec parses a scheme spec. It only validates the syntax (a
// scheme spec never composes); New resolves the parts against the
// registry.
func ParseSpec(s string) (Spec, error) { return registry.Parse(s) }

// build resolves a parsed spec against the registry and constructs the
// scheme on the named organization, or the entry's default.
func build(s Spec) (ecc.Scheme, error) {
	e, err := registry.Resolve(s)
	if err != nil {
		return nil, err
	}
	orgID := s.Org
	if orgID == "" {
		orgID = e.DefaultOrg
	}
	if !slices.Contains(e.Orgs, orgID) {
		return nil, fmt.Errorf("schemes: scheme %q does not support organization %q (valid: %s)",
			s.ID, orgID, strings.Join(e.Orgs, "|"))
	}
	org, err := OrgByID(orgID)
	if err != nil {
		return nil, err
	}
	scheme, err := e.New(org, s.Options)
	if err != nil {
		return nil, fmt.Errorf("schemes: building %q: %w", s.String(), err)
	}
	return scheme, nil
}

// New parses a spec string and builds the scheme it describes. Errors
// enumerate the valid scheme IDs, organizations or option keys, all
// generated from the registry.
func New(spec string) (ecc.Scheme, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return build(s)
}

// MustNew is New, panicking on error; for specs known at compile time.
func MustNew(spec string) ecc.Scheme {
	s, err := New(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// CanonicalSpec returns the canonical spec string of an entry on an
// organization: the bare ID on its default organization, id@org
// otherwise.
func CanonicalSpec(e *Entry, orgID string) string {
	if orgID == "" || orgID == e.DefaultOrg {
		return e.ID
	}
	return e.ID + "@" + orgID
}

// Build constructs every spec in the list, stopping at the first error.
func Build(specs []string) ([]ecc.Scheme, error) {
	out := make([]ecc.Scheme, 0, len(specs))
	for _, spec := range specs {
		s, err := New(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ParseSpecList splits a comma/whitespace-separated spec list (see
// SplitSpecList) and builds each entry.
func ParseSpecList(list string) ([]ecc.Scheme, error) {
	specs, err := SplitSpecList(list)
	if err != nil {
		return nil, err
	}
	return Build(specs)
}

// SplitSpecList splits a comma/whitespace-separated spec list into its
// individual spec strings with spec.SplitList's comma rule, validating
// only the syntax of each. It is the wire-format helper for remote
// submission: a fleet client ships the spec strings and the coordinator
// and every worker build them against their own registries.
func SplitSpecList(list string) ([]string, error) { return registry.SplitList(list) }
