package spec

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// OptionDoc documents one option key a registered entry accepts.
type OptionDoc struct {
	Key string
	Doc string
}

// Registry is an ordered set of entries addressed by ID. Registration
// order is presentation order: IDs, All, listings and the "valid: a|b"
// error texts all follow it, so an error can never advertise an entry
// that is not registered. The zero value (with Pkg and Kind set) is
// ready to use; registration happens from init functions, so Register
// panics on a malformed or duplicate entry and lookups take no lock.
type Registry[E any] struct {
	// Pkg prefixes every error and panic ("schemes").
	Pkg string
	// Kind names an entry in messages ("scheme", "organization").
	Kind string
	// Org and Compose admit the optional grammar parts name@org and
	// compose(...) in specs addressed to this registry; Parse rejects
	// them otherwise.
	Org, Compose bool

	entries map[string]registered[E]
	order   []string
}

type registered[E any] struct {
	entry   E
	options []OptionDoc
}

// Register adds an entry under id with the option keys its constructor
// accepts. IDs must stay inside the name alphabet [a-z0-9-] and may not
// be the compose keyword, so every entry remains addressable by spec.
func (r *Registry[E]) Register(id string, options []OptionDoc, e E) {
	if id == "" || id == Compose || strings.TrimFunc(id, isNameRune) != "" {
		panic(fmt.Sprintf("%s: %s ID %q outside the spec name alphabet [a-z0-9-] or reserved", r.Pkg, r.Kind, id))
	}
	if _, dup := r.entries[id]; dup {
		panic(fmt.Sprintf("%s: duplicate %s %q", r.Pkg, r.Kind, id))
	}
	if r.entries == nil {
		r.entries = map[string]registered[E]{}
	}
	r.entries[id] = registered[E]{entry: e, options: options}
	r.order = append(r.order, id)
}

func isNameRune(c rune) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-'
}

// Lookup returns the entry registered under id.
func (r *Registry[E]) Lookup(id string) (E, bool) {
	reg, ok := r.entries[id]
	return reg.entry, ok
}

// Get returns the entry registered under id, or an error enumerating
// the valid IDs.
func (r *Registry[E]) Get(id string) (E, error) {
	reg, ok := r.entries[id]
	if !ok {
		return reg.entry, fmt.Errorf("%s: unknown %s %q (valid: %s)", r.Pkg, r.Kind, id, strings.Join(r.order, "|"))
	}
	return reg.entry, nil
}

// IDs returns every registered ID in registration order.
func (r *Registry[E]) IDs() []string {
	return append([]string(nil), r.order...)
}

// All returns every registered entry in registration order.
func (r *Registry[E]) All() []E {
	out := make([]E, len(r.order))
	for i, id := range r.order {
		out[i] = r.entries[id].entry
	}
	return out
}

// Parse parses s and rejects the grammar parts this registry does not
// resolve: an @org unless Org is set, compose(...) unless Compose is.
func (r *Registry[E]) Parse(s string) (Spec, error) {
	p, err := Parse(s)
	if err != nil {
		return Spec{}, err
	}
	if err := r.admit(p, s); err != nil {
		return Spec{}, err
	}
	return p, nil
}

func (r *Registry[E]) admit(p Spec, s string) error {
	switch {
	case p.ID == Compose && !r.Compose:
		return fmt.Errorf("%s: %s specs do not compose, got %q", r.Pkg, r.Kind, s)
	case p.Org != "" && !r.Org:
		return fmt.Errorf("%s: %s specs take no @organization, got %q", r.Pkg, r.Kind, s)
	}
	for _, c := range p.Parts {
		if err := r.admit(c, s); err != nil {
			return err
		}
	}
	return nil
}

// SplitList is the package-level SplitList with every spec also passed
// through Parse.
func (r *Registry[E]) SplitList(list string) ([]string, error) {
	specs, err := SplitList(list)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		if _, err := r.Parse(s); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// Resolve returns the entry a leaf spec names after checking that the
// entry documents every option key the spec uses. Errors enumerate the
// valid IDs or option keys.
func (r *Registry[E]) Resolve(s Spec) (E, error) {
	var zero E
	e, err := r.Get(s.ID)
	if err != nil {
		return zero, err
	}
	var valid, bad []string
	for _, o := range r.entries[s.ID].options {
		valid = append(valid, o.Key)
	}
	for k := range s.Options {
		if !slices.Contains(valid, k) {
			bad = append(bad, k)
		}
	}
	if len(bad) == 0 {
		return e, nil
	}
	slices.Sort(bad)
	if len(valid) == 0 {
		return zero, fmt.Errorf("%s: %s %q takes no options, got %s", r.Pkg, r.Kind, s.ID, strings.Join(bad, ","))
	}
	return zero, fmt.Errorf("%s: %s %q does not accept option(s) %s (valid: %s)",
		r.Pkg, r.Kind, s.ID, strings.Join(bad, ","), strings.Join(valid, "|"))
}

// WriteOptions writes the options block of a listing: every entry that
// takes options, in registration order, with one key per line.
func (r *Registry[E]) WriteOptions(w io.Writer) {
	for _, id := range r.order {
		options := r.entries[id].options
		if len(options) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s:\n", id)
		for _, o := range options {
			fmt.Fprintf(w, "    %-8s %s\n", o.Key, o.Doc)
		}
	}
}
