package spec

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse is the parse-or-reject property of the shared grammar: no
// input may panic the parser, any accepted spec satisfies
// parse∘canonical = identity, and canonical specs survive a round trip
// through SplitList whether joined by whitespace or by commas, alone or
// next to a compose and an option-carrying leaf. The seeds are the
// scheme, fault and profile specs the registries are tested with.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		// schemes
		"pair", "pair@ddr5x16", "pair:spare=3.7", "pair@ddr5x16:exp=4,lat=2.5",
		"duo-rank@ddr4x8ecc", "pair:spare=", "@ddr4x16", "pair@", "pair:=3", "pair:a=1,a=2",
		// faults
		"pin", "pinburst:b=4", "retention:pop=1e-6,cluster=2.5", "rowhammer:radius=1,rate=0.3",
		"vrt:flicker=0.2", "chipkill:chips=2", "inherent:ber=1e-4",
		"compose(pin,inherent:ber=1e-5)", "compose(compose(pin,lane),vrt)",
		"compose(retention:pop=1e-6,cluster=2.5,pin)", "compose", "compose()",
		"a:k=v:w", "a,b", "x:=", "((((",
		// profiles
		"ddr4-2400", "ddr5-4800:policy=closed,channels=2", "lpddr5-6400:refresh=all-bank",
		"a:b=c", ":x=y", "p:k=v,k=v", "p:k=v:k=v",
		// @org inside compose, deep nesting
		"compose(pair@ddr5x16:exp=4,pin@x)", "compose(compose(compose(a@b:c=d)),e)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse(in)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		canon := s.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical %q of accepted %q fails to reparse: %v", canon, in, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("parse∘canonical not identity: %q reparsed to %q", canon, got)
		}
		specs := []string{canon, "compose(pin,lane)", canon, "x:k=v", canon}
		for _, sep := range []string{" ", ","} {
			got, err := SplitList(strings.Join(specs, sep))
			if err != nil || !reflect.DeepEqual(got, specs) {
				t.Fatalf("SplitList of %q joined by %q = %q, %v", specs, sep, got, err)
			}
		}
	})
}
