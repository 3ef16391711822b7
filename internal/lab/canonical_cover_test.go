package lab

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/idr"
)

// executionOnly is the one list of Sweep fields (by path from the
// Sweep) that must NOT move Canonical(), each with the reason it
// cannot change a successful result. Every other field reachable from
// a Sweep must move it: TestCanonicalCoversEveryField checks both
// directions, so a new field ships either serialized or listed here.
var executionOnly = map[string]string{
	"Name":           "presentation label of the encoded output",
	"Base.Seed":      "overwritten per (cell, run) from BaseSeed and SeedPolicy, which are canonical",
	"Base.TopoSeed":  "overwritten with BaseSeed, which is canonical",
	"Base.WallLimit": "wall-clock guard: can only fail a run, never change a successful result",
	"Parallelism":    "results are placed by (cell, run) index, identical at any parallelism",
	"Progress":       "completion callback; observes only",
	"Cache":          "a hit is bit-identical to the run it replaces",
	"Tolerate":       "decides what happens to a failed run, not what a successful one returns",
	"Inject":         "chaos-test seam that replaces a run with an error",
	"Stop":           "drain request; completed runs are unaffected",
}

// coverBases returns fresh copies of the sweeps the cover test mutates.
// A field only prints where its variant is live (TopoSpec.M under
// grid, P under er; Placement.K under last, ASNs under explicit; Event
// without a Workload; each Axis value slice under its own kind;
// Damping's fields when it is set), so between them the bases put
// every field in a live position. Timers, Runs and the strings are
// spelled out so that one changed field is the only difference from
// the reference (a zero Timers would swap the whole default set).
func coverBases() []Sweep {
	base := func(axis Axis) Sweep {
		return Sweep{
			Name: "fig2",
			Base: Trial{
				Topo:      TopoSpec{Kind: "grid", N: 3, M: 3},
				Placement: Placement{Strategy: PlaceLast, K: 2},
				Policy:    PolicySpec{Kind: PolicyPermitAll},
				Event:     Withdrawal,
				Timers:    bgp.DefaultTimers(),
			},
			Axis: axis,
			Runs: 2,
		}
	}
	scheduled := base(MRAIs(5*time.Second, 30*time.Second))
	scheduled.Base.Topo = TopoSpec{Kind: "er", N: 8, P: 0.25}
	scheduled.Base.Placement = Placement{Strategy: PlaceExplicit, ASNs: []idr.ASN{2, 3}}
	scheduled.Base.Workload = Workload{{At: time.Second, Kind: KindLinkDown, AS: 1, A: 1, B: 2}}
	scheduled.Base.Damping = &bgp.DampingConfig{HalfLife: 2 * time.Minute}
	return []Sweep{
		base(SDNCounts(0, 2)),
		scheduled,
		base(Modes(ModeBGP, ModeSDN)),
		base(Policies(PolicySpec{Kind: PolicyPermitAll}, PolicySpec{Kind: PolicyGaoRexford})),
		base(Losses(0, 0.05)),
	}
}

// alternates gives each string the bases use a different valid value:
// an arbitrary edit would not do, because the String() methods the
// canonical form prints through fold unknown values onto a default
// ("lastx 2" prints as "last 2").
var alternates = map[string]string{
	"fig2":          "renamed",
	"grid":          "tree",
	"er":            "ba",
	PlaceLast:       PlaceFirst,
	PlaceExplicit:   PlaceNone,
	PolicyPermitAll: PolicyGaoRexford,
	ModeBGP:         ModeDamping,
}

// leaf is one settable position reached from a Sweep value.
type leaf struct {
	path string
	v    reflect.Value
}

// join appends a field name to a path.
func join(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}

// leafPaths lists every leaf position of type t: structs are walked
// field by field, slices through their first element, and a pointer is
// both a leaf (set or nil) and a way to the fields behind it.
func leafPaths(path string, t reflect.Type, out map[string]bool) {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			leafPaths(join(path, t.Field(i).Name), t.Field(i).Type, out)
		}
	case reflect.Slice:
		leafPaths(path+"[0]", t.Elem(), out)
	case reflect.Pointer:
		out[path] = true
		leafPaths(path, t.Elem(), out)
	default:
		out[path] = true
	}
}

// leaves is leafPaths over a value: the positions that exist in v (an
// empty slice and a nil pointer have nothing behind them).
func leaves(path string, v reflect.Value, out *[]leaf) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leaves(join(path, v.Type().Field(i).Name), v.Field(i), out)
		}
	case reflect.Slice:
		if v.Len() > 0 {
			leaves(path+"[0]", v.Index(0), out)
		}
	case reflect.Pointer:
		*out = append(*out, leaf{path, v})
		if !v.IsNil() {
			leaves(path, v.Elem(), out)
		}
	default:
		*out = append(*out, leaf{path, v})
	}
}

// mutate changes v to a different value of its type.
func mutate(v reflect.Value) error {
	if !v.CanSet() {
		return fmt.Errorf("field is not settable (unexported?)")
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint32:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.String:
		alt, ok := alternates[v.String()]
		if !ok {
			return fmt.Errorf("no alternate for string %q", v.String())
		}
		v.SetString(alt)
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.SetZero()
		}
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			outs := make([]reflect.Value, v.Type().NumOut())
			for i := range outs {
				outs[i] = reflect.Zero(v.Type().Out(i))
			}
			return outs
		}))
	case reflect.Chan:
		v.Set(reflect.MakeChan(reflect.ChanOf(reflect.BothDir, v.Type().Elem()), 0).Convert(v.Type()))
	case reflect.Interface:
		impl := reflect.ValueOf(nopCache{})
		if !impl.Type().Implements(v.Type()) {
			return fmt.Errorf("no mutation for interface %s", v.Type())
		}
		v.Set(impl)
	default:
		return fmt.Errorf("no mutation for kind %s", v.Kind())
	}
	return nil
}

// TestCanonicalCoversEveryField is the completeness check on the
// content address, by behaviour: for every field reachable from a
// Sweep, changing that field alone changes Canonical()'s bytes in some
// base where the field is live — unless the field is listed in
// executionOnly, in which case no base's bytes may change. A field
// that does neither (added to Trial but not to canonical.go), a field
// of a kind mutate does not know, a field no base reaches and a stale
// executionOnly entry all fail.
func TestCanonicalCoversEveryField(t *testing.T) {
	all := map[string]bool{}
	leafPaths("", reflect.TypeOf(Sweep{}), all)
	for path := range executionOnly {
		if !all[path] {
			t.Errorf("executionOnly lists %s, which is not a field reachable from Sweep", path)
		}
	}
	reached, moved := map[string]bool{}, map[string]bool{}
	for bi, base := range coverBases() {
		ref, err := base.Canonical()
		if err != nil {
			t.Fatalf("base %d: %v", bi, err)
		}
		var n []leaf
		leaves("", reflect.ValueOf(&base).Elem(), &n)
		for li := range n {
			s := coverBases()[bi] // a fresh copy: slices must not share mutations
			var ls []leaf
			leaves("", reflect.ValueOf(&s).Elem(), &ls)
			path := ls[li].path
			if err := mutate(ls[li].v); err != nil {
				t.Errorf("%s: %v — teach mutate the kind, or add the alternate", path, err)
				continue
			}
			got, err := s.Canonical()
			if err != nil {
				t.Errorf("base %d: changing %s broke Canonical(): %v", bi, path, err)
				continue
			}
			reached[path] = true
			if !bytes.Equal(got, ref) {
				moved[path] = true
				if why, ok := executionOnly[path]; ok {
					t.Errorf("base %d: %s is listed execution-only (%s) but changing it moves the address", bi, path, why)
				}
			}
		}
	}
	paths := make([]string, 0, len(all))
	for path := range all {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		_, listed := executionOnly[path]
		switch {
		case !reached[path]:
			t.Errorf("no base in coverBases puts %s in a live position", path)
		case !moved[path] && !listed:
			t.Errorf("changing %s alone never changes Canonical(): serialize it in canonical.go, or list it in executionOnly with the reason it cannot change a result", path)
		}
	}
}

// TestCanonicalDefaultsSpelledOut asserts that spelling a documented
// default out loud addresses the same content as leaving it zero.
func TestCanonicalDefaultsSpelledOut(t *testing.T) {
	base := Sweep{Base: Trial{Topo: TopoSpec{Kind: "clique", N: 4}}, Axis: SDNCounts(0, 2)}
	ref, err := base.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*Sweep){
		"runs":   func(s *Sweep) { s.Runs = 1 },
		"timers": func(s *Sweep) { s.Base.Timers = bgp.DefaultTimers() },
		// A hand-built Timers whose unset fields the router defaults
		// anyway; jitter spelled out to match.
		"partial timers": func(s *Sweep) { s.Base.Timers = bgp.Timers{MRAI: 30 * time.Second, MRAIJitter: true} },
	} {
		s := base
		mut(&s)
		got, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("spelling out the default %s changed the canonical bytes", name)
		}
	}
}
