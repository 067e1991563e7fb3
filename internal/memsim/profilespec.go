package memsim

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"pair/internal/spec"
)

// Profile specs use the shared grammar of package spec, without @org or
// compose:
//
//	name[:key=val,...]
//
// where name is a registered profile ID and the options (profileOptions)
// override the builtin defaults. Examples:
//
//	ddr4-2400
//	ddr5-4800:policy=closed,channels=2
//	lpddr5-6400:refresh=all-bank
//
// The canonical form sorts option keys and keeps the raw option values;
// parsing the canonical form reproduces the spec exactly, so experiment
// labels embedding a spec stay stable.

// profileOptions are the overrides every profile spec accepts, each with
// the setter that applies it to the builtin defaults.
var profileOptions = []struct {
	spec.OptionDoc
	apply func(p *Profile, v string) error
}{
	{spec.OptionDoc{Key: "policy", Doc: "open|closed — row-buffer management (closed auto-precharges after every access)"},
		func(p *Profile, v string) error { return choose(&p.Policy, v, OpenPage, ClosedPage) }},
	{spec.OptionDoc{Key: "channels", Doc: "1..16 — independent channels; cache lines interleave across channels x subchannels"},
		func(p *Profile, v string) error {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 || n > 16 {
				return errors.New("want 1..16")
			}
			p.Channels = n
			return nil
		}},
	{spec.OptionDoc{Key: "refresh", Doc: "all-bank|same-bank — REFab blackout vs staggered per-bank REFsb windows"},
		func(p *Profile, v string) error { return choose(&p.Refresh, v, RefreshAllBank, RefreshSameBank) }},
}

// profileOptionDocs documents profileOptions for the registry.
var profileOptionDocs = func() []spec.OptionDoc {
	docs := make([]spec.OptionDoc, len(profileOptions))
	for i, o := range profileOptions {
		docs[i] = o.OptionDoc
	}
	return docs
}()

// choose sets *dst to the choice named v.
func choose[T fmt.Stringer](dst *T, v string, choices ...T) error {
	names := make([]string, len(choices))
	for i, c := range choices {
		if c.String() == v {
			*dst = c
			return nil
		}
		names[i] = c.String()
	}
	return fmt.Errorf("want %s", strings.Join(names, " or "))
}

// ParseProfileSpec parses a profile spec. It only validates the syntax;
// NewProfile resolves the ID and options against the registry.
func ParseProfileSpec(s string) (spec.Spec, error) { return profiles.Parse(s) }

// NewProfile parses a spec string, applies the option overrides to the
// registered defaults and validates the result. Errors enumerate the
// valid profile IDs or option keys. The profile's Spec() is the spec's
// canonical form.
func NewProfile(s string) (*Profile, error) {
	ps, err := ParseProfileSpec(s)
	if err != nil {
		return nil, err
	}
	e, err := profiles.Resolve(ps)
	if err != nil {
		return nil, err
	}
	p := e.New()
	for _, o := range profileOptions {
		if v, ok := ps.Options[o.Key]; ok {
			if err := o.apply(&p, v); err != nil {
				return nil, fmt.Errorf("memsim: profile option %s=%q (%v)", o.Key, v, err)
			}
		}
	}
	p.spec = ps.String()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// MustProfile is NewProfile, panicking on error; for specs known at
// compile time.
func MustProfile(spec string) *Profile {
	p, err := NewProfile(spec)
	if err != nil {
		panic(err)
	}
	return p
}
