package spec

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseCanonical pins the canonical form of representative specs of
// all three registries and checks parse∘canonical = identity.
func TestParseCanonical(t *testing.T) {
	cases := []struct{ in, canonical string }{
		{"pair", "pair"},
		{"pair@ddr5x16", "pair@ddr5x16"},
		{"pair@ddr5x16:lat=2.5,exp=4", "pair@ddr5x16:exp=4,lat=2.5"},
		{"pair:spare=", "pair:spare="},
		{"retention:pop=1e-6,cluster=2.5", "retention:cluster=2.5,pop=1e-6"},
		{"compose(pin,inherent:ber=1e-5)", "compose(pin,inherent:ber=1e-5)"},
		{"compose(retention:pop=1e-6,cluster=2.5,pin)", "compose(retention:cluster=2.5,pop=1e-6,pin)"},
		{"compose(compose(pin,lane),vrt:flicker=0.5)", "compose(compose(pin,lane),vrt:flicker=0.5)"},
		{"compose(pair@ddr5x16:exp=4,pin)", "compose(pair@ddr5x16:exp=4,pin)"},
		{"ddr5-4800:policy=closed,channels=2", "ddr5-4800:channels=2,policy=closed"},
		{"x:k=a=b", "x:k=a=b"},
	}
	for _, c := range cases {
		s, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := s.String(); got != c.canonical {
			t.Fatalf("canonical of %q = %q, want %q", c.in, got, c.canonical)
		}
		again, err := Parse(c.canonical)
		if err != nil || again.String() != c.canonical {
			t.Fatalf("reparse of %q = %q, %v", c.canonical, again.String(), err)
		}
	}
	s, _ := Parse("compose(pin,pair@ddr5x16:exp=4)")
	want := Spec{ID: Compose, Parts: []Spec{{ID: "pin"}, {ID: "pair", Org: "ddr5x16", Options: map[string]string{"exp": "4"}}}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
}

// TestParseErrors rejects every shape the grammar rules out.
func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"", ":k=v", "@ddr4x16", "pair@", "pair@a@b", "pair:spare", "pair:=3", "pair:a=1,a=2",
		"a:k=v:w", "a,b", "a=b", "pair@o=x", "pair :k=v", "pair\t",
		"compose", "compose:k=1", "compose()", "compose(pin", "compose(pin))", "pin)", "(pin)",
		"compose(pin,)", "compose(compose)", "compose(pin,(lane)", "pin:k=(v)",
	} {
		if s, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %+v, want an error", in, s)
		}
	}
}

// TestSplitList pins the comma rule: whitespace always separates, a
// comma separates unless it sits inside compose(...) or precedes a bare
// key=val continuing an option list. The first rows are lists the
// scheme and fault splitters both accepted before they were unified;
// the pair:exp=4,pair:spare=3.7 row is the one the scheme splitter got
// wrong.
func TestSplitList(t *testing.T) {
	cases := []struct {
		list string
		want []string
	}{
		{"pair@ddr5x16,pair:spare=3.7", []string{"pair@ddr5x16", "pair:spare=3.7"}},
		{"pair:exp=4,lat=2.5", []string{"pair:exp=4,lat=2.5"}},
		{"compose(pin,lane),pin", []string{"compose(pin,lane)", "pin"}},
		{"pinburst:b=4,retention:pop=1e-6", []string{"pinburst:b=4", "retention:pop=1e-6"}},
		{"pair:exp=4,pair:spare=3.7", []string{"pair:exp=4", "pair:spare=3.7"}},
		{"pair@ddr5x16,pair:spare=3.7,chip=1,iecc", []string{"pair@ddr5x16", "pair:spare=3.7,chip=1", "iecc"}},
		{"pair:spare=3.7 duo", []string{"pair:spare=3.7", "duo"}},
		{"pin,retention:pop=1e-5,cluster=2 compose(pin,vrt:flicker=0.5),lane",
			[]string{"pin", "retention:pop=1e-5,cluster=2", "compose(pin,vrt:flicker=0.5)", "lane"}},
		{"  ddr4-2400\tddr5-4800:policy=closed,channels=2\n", []string{"ddr4-2400", "ddr5-4800:policy=closed,channels=2"}},
		{"", nil},
	}
	for _, c := range cases {
		got, err := SplitList(c.list)
		if err != nil {
			t.Fatalf("SplitList(%q): %v", c.list, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("SplitList(%q) = %q, want %q", c.list, got, c.want)
		}
	}
	for _, bad := range []string{"pin,compose(lane", "pin),lane", "pair,,iecc", "pair:k"} {
		if got, err := SplitList(bad); err == nil {
			t.Errorf("SplitList(%q) = %q, want an error", bad, got)
		}
	}
}

type entry struct{ name string }

func testRegistry() *Registry[*entry] {
	r := &Registry[*entry]{Pkg: "test", Kind: "widget", Compose: true}
	r.Register("plain", nil, &entry{"plain"})
	r.Register("knobs", []OptionDoc{{Key: "a", Doc: "first knob"}, {Key: "b", Doc: "second knob"}}, &entry{"knobs"})
	return r
}

func TestRegistryLookup(t *testing.T) {
	r := testRegistry()
	if got := r.IDs(); !reflect.DeepEqual(got, []string{"plain", "knobs"}) {
		t.Fatalf("IDs = %v, want registration order", got)
	}
	if all := r.All(); len(all) != 2 || all[0].name != "plain" || all[1].name != "knobs" {
		t.Fatalf("All = %v", all)
	}
	if e, ok := r.Lookup("knobs"); !ok || e.name != "knobs" {
		t.Fatalf("Lookup(knobs) = %v, %v", e, ok)
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Fatal("phantom entry")
	}
	_, err := r.Get("nope")
	if err == nil || err.Error() != `test: unknown widget "nope" (valid: plain|knobs)` {
		t.Fatalf("Get(nope) error = %v", err)
	}
}

func TestRegistryResolve(t *testing.T) {
	r := testRegistry()
	cases := []struct{ spec, err string }{
		{"plain", ""},
		{"knobs:b=2,a=1", ""},
		{"nope", `test: unknown widget "nope" (valid: plain|knobs)`},
		{"plain:z=1,y=2", `test: widget "plain" takes no options, got y,z`},
		{"knobs:a=1,c=3", `test: widget "knobs" does not accept option(s) c (valid: a|b)`},
	}
	for _, c := range cases {
		s, err := r.Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		e, err := r.Resolve(s)
		switch {
		case c.err == "" && (err != nil || e.name != s.ID):
			t.Fatalf("Resolve(%q) = %v, %v", c.spec, e, err)
		case c.err != "" && (err == nil || err.Error() != c.err || e != nil):
			t.Fatalf("Resolve(%q) = %v, %v; want error %q", c.spec, e, err, c.err)
		}
	}
}

// TestRegistryAdmits checks that each registry rejects the grammar parts
// it does not resolve, at any compose depth and inside lists.
func TestRegistryAdmits(t *testing.T) {
	leaf := &Registry[int]{Pkg: "test", Kind: "profile"}
	orgs := &Registry[int]{Pkg: "test", Kind: "scheme", Org: true}
	comp := testRegistry()
	cases := []struct {
		spec               string
		leaf, orgs, compOK bool
	}{
		{"a:k=v", true, true, true},
		{"a@o", false, true, false},
		{"compose(a,b)", false, false, true},
		{"compose(a,compose(b@o))", false, false, false},
	}
	for _, c := range cases {
		for _, r := range []struct {
			parse func(string) (Spec, error)
			split func(string) ([]string, error)
			ok    bool
		}{{leaf.Parse, leaf.SplitList, c.leaf}, {orgs.Parse, orgs.SplitList, c.orgs}, {comp.Parse, comp.SplitList, c.compOK}} {
			if _, err := r.parse(c.spec); (err == nil) != r.ok {
				t.Errorf("Parse(%q) error %v, want ok=%v", c.spec, err, r.ok)
			}
			if _, err := r.split("x " + c.spec); (err == nil) != r.ok {
				t.Errorf("SplitList(x %q) error %v, want ok=%v", c.spec, err, r.ok)
			}
		}
	}
	if _, err := leaf.Parse("a:"); err == nil || !strings.HasPrefix(err.Error(), "spec: ") {
		t.Fatalf("syntax error %v should come from the shared parser", err)
	}
	if _, err := leaf.SplitList("a,(b"); err == nil {
		t.Fatal("unbalanced list accepted")
	}
}

func TestRegisterPanics(t *testing.T) {
	for _, id := range []string{"", "Upper", "has space", "a@b", "a:b", Compose, "plain"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", id)
				}
			}()
			testRegistry().Register(id, nil, &entry{id})
		}()
	}
}

func TestWriteOptions(t *testing.T) {
	var b strings.Builder
	testRegistry().WriteOptions(&b)
	want := "  knobs:\n    a        first knob\n    b        second knob\n"
	if b.String() != want {
		t.Fatalf("WriteOptions = %q, want %q", b.String(), want)
	}
}
