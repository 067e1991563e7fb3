// Package spec is the one spec grammar every registry in the module
// speaks — ECC schemes, fault scenarios and memory profiles — plus the
// generic Registry those three are built on.
//
// # Grammar
//
//	name[@org][:key=val,...]
//	compose(spec,spec,...)
//
// name is a registered ID, org a registered organization and the
// key=val options are interpreted by the entry's constructor hook;
// compose nests freely. Each registry admits only the parts it can
// resolve (see Registry.Org and Registry.Compose). Examples:
//
//	pair:exp=4                       PAIR expanded to RS(22,16)
//	pair@ddr5x16:spare=3.7           spared-PAIR on a DDR5 subchannel
//	compose(pin,inherent:ber=1e-5)   a pin fault over ambient weak cells
//	ddr5-4800:policy=closed          a closed-page DDR5 channel
//
// A leaf holds at most one ':' and no parentheses or whitespace, and
// names and organizations hold no ',' or '='. Those rules keep every
// canonical form (Spec.String: option keys sorted, raw values kept)
// reparseable on its own, inside compose(...) and inside a list, so
// parse∘canonical is the identity and labels embedding a spec are
// stable.
package spec

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// Compose is the grammar keyword for composition; no registry may
// register an entry under it.
const Compose = "compose"

// Spec is a parsed spec. Leaves carry an ID, an optional organization
// and options; compose specs carry ID Compose and their children.
type Spec struct {
	// ID is the registered identifier, or Compose.
	ID string
	// Org is the organization after '@', or "" when none is named.
	Org string
	// Options holds the key=val options of a leaf, if any.
	Options map[string]string
	// Parts holds the children of a compose spec, in order.
	Parts []Spec
}

// Parse parses the grammar. It only validates the syntax; registries
// resolve the parts (see Registry.Parse and Registry.Resolve).
func Parse(s string) (Spec, error) {
	if strings.HasPrefix(s, Compose+"(") {
		if !strings.HasSuffix(s, ")") {
			return Spec{}, fmt.Errorf("spec: unterminated %s in spec %q", Compose, s)
		}
		inner := s[len(Compose)+1 : len(s)-1]
		if inner == "" {
			return Spec{}, fmt.Errorf("spec: empty %s in spec %q", Compose, s)
		}
		parts, err := split(inner)
		if err != nil {
			return Spec{}, fmt.Errorf("spec: %v in spec %q", err, s)
		}
		out := Spec{ID: Compose}
		for _, p := range parts {
			child, err := Parse(p)
			if err != nil {
				return Spec{}, err
			}
			out.Parts = append(out.Parts, child)
		}
		return out, nil
	}
	if strings.ContainsAny(s, "()") {
		return Spec{}, fmt.Errorf("spec: malformed spec %q (parentheses only follow %q)", s, Compose)
	}
	if strings.IndexFunc(s, unicode.IsSpace) >= 0 {
		return Spec{}, fmt.Errorf("spec: malformed spec %q (whitespace separates specs)", s)
	}
	out := Spec{}
	head, opts, hasOpts := strings.Cut(s, ":")
	if hasOpts {
		if strings.Contains(opts, ":") {
			return Spec{}, fmt.Errorf("spec: malformed spec %q (only one ':' allowed)", s)
		}
		out.Options = map[string]string{}
		for _, kv := range strings.Split(opts, ",") {
			k, v, found := strings.Cut(kv, "=")
			if !found || k == "" {
				return Spec{}, fmt.Errorf("spec: malformed option %q in spec %q (want key=val)", kv, s)
			}
			if _, dup := out.Options[k]; dup {
				return Spec{}, fmt.Errorf("spec: duplicate option %q in spec %q", k, s)
			}
			out.Options[k] = v
		}
	}
	if strings.ContainsAny(head, ",=") {
		return Spec{}, fmt.Errorf("spec: malformed spec %q (option list needs a ':')", s)
	}
	id, org, hasOrg := strings.Cut(head, "@")
	switch {
	case id == "":
		return Spec{}, fmt.Errorf("spec: empty name in spec %q", s)
	case hasOrg && (org == "" || strings.Contains(org, "@")):
		return Spec{}, fmt.Errorf("spec: malformed organization %q in spec %q", org, s)
	case id == Compose:
		return Spec{}, fmt.Errorf("spec: %q needs a parenthesized spec list in spec %q", Compose, s)
	}
	out.ID, out.Org = id, org
	return out, nil
}

// String renders the canonical form: options sorted by key with their
// raw values, compose children joined in order.
func (s Spec) String() string {
	var b strings.Builder
	if s.ID == Compose {
		b.WriteString(Compose + "(")
		for i, p := range s.Parts {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(p.String())
		}
		b.WriteByte(')')
		return b.String()
	}
	b.WriteString(s.ID)
	if s.Org != "" {
		b.WriteByte('@')
		b.WriteString(s.Org)
	}
	keys := make([]string, 0, len(s.Options))
	for k := range s.Options {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sep := byte(':')
	for _, k := range keys {
		b.WriteByte(sep)
		sep = ','
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Options[k])
	}
	return b.String()
}

// SplitList splits a comma/whitespace-separated spec list into its
// spec strings, validating the syntax of each. Whitespace always
// separates specs. A comma separates specs too, except inside
// compose(...) and before a bare key=val (no ':' or '('), which
// continues the previous spec's option list:
//
//	pair:spare=3.7,chip=1,iecc  ->  pair:spare=3.7,chip=1  iecc
//	pair:exp=4,pair:spare=3.7   ->  pair:exp=4  pair:spare=3.7
//
// The strings come back as written, not canonicalized: remote
// submission ships them and every node resolves them against its own
// registries.
func SplitList(list string) ([]string, error) {
	var specs []string
	for _, tok := range strings.Fields(list) {
		parts, err := split(tok)
		if err != nil {
			return nil, fmt.Errorf("spec: %v in spec list %q", err, list)
		}
		specs = append(specs, parts...)
	}
	for _, s := range specs {
		if _, err := Parse(s); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// split splits one whitespace-free token on the commas that separate
// specs (see SplitList). Unbalanced parentheses are an error so a
// malformed compose cannot silently become several leaf specs.
func split(tok string) ([]string, error) {
	var parts []string
	depth, last := 0, 0
	for i := 0; i < len(tok); i++ {
		switch tok[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced %q", ")")
			}
		case ',':
			if depth == 0 {
				parts = append(parts, tok[last:i])
				last = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("unbalanced %q", "(")
	}
	parts = append(parts, tok[last:])

	out := []string{parts[0]}
	for _, p := range parts[1:] {
		cur := &out[len(out)-1]
		if strings.Contains(*cur, ":") && strings.Contains(p, "=") && !strings.ContainsAny(p, ":(") {
			*cur += "," + p // continuing the current spec's option list
		} else {
			out = append(out, p)
		}
	}
	return out, nil
}
