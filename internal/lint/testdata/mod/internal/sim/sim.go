// Package sim is a determinism-analyzer fixture: the want comments
// mark the sites that must fire, the //lint: annotations mark the
// sites that must stay silent.
package sim

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// Keys collects and then sorts (flagged: a sort somewhere after the
// loop is not inferred; sorted keys come from one helper, whose loop
// carries the annotation).
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want "maporder"
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FilteredKeys collects behind a pure filter with a continue and an
// if/else branch, then sorts (flagged, as Keys).
func FilteredKeys(m map[string]int) []string {
	var out []string
	for k, v := range m { // want "maporder"
		if v == 0 {
			continue
		}
		if v > 0 {
			out = append(out, k)
		} else {
			out = append(out, k+"!")
		}
	}
	sort.Strings(out)
	return out
}

// BranchSorted collects in one arm of an if and sorts only in the
// other: the sort never runs after the loop (flagged — the shape that
// hid an unsorted recomputation batch in core.Controller.recompute).
func BranchSorted(m map[string]int, all bool) []string {
	var out []string
	if all {
		for k := range m { // want "maporder"
			out = append(out, k)
		}
	} else {
		out = append(out, "none")
		sort.Strings(out)
	}
	return out
}

// NestedThenSorted collects inside a branch and sorts after it, in an
// enclosing block (flagged, as Keys).
func NestedThenSorted(m map[string]int, all bool) []string {
	var out []string
	if all {
		for k := range m { // want "maporder"
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Sum accumulates integers commutatively (not flagged).
func Sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// Copy writes through the distinct range key (not flagged).
func Copy(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Leak returns map keys in randomized order: collected but never
// sorted.
func Leak(m map[string]int) []string {
	var out []string
	for k := range m { // want "maporder"
		out = append(out, k)
	}
	return out
}

// MeanDrift accumulates floats, where summation order changes the
// rounding (flagged by design).
func MeanDrift(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m { // want "maporder"
		total += v
	}
	return total
}

// First picks an arbitrary element at an annotated site (suppressed).
func First(m map[string]int) string {
	//lint:maporder fixture: any element yields the same downstream verdict
	for k := range m {
		return k
	}
	return ""
}

// Bogus carries a reason-less marker: the marker itself is flagged and
// it suppresses nothing.
func Bogus(m map[string]int) string {
	// want-below "annotation"
	//lint:maporder
	for k := range m { // want "maporder"
		return k
	}
	return ""
}

// IterKeys ranges over a map iterator, which yields in map order.
func IterKeys(m map[string]int) []string {
	var out []string
	for k := range maps.Keys(m) { // want "maporder"
		out = append(out, k)
	}
	return out
}

// CollectValues gathers a map iterator into a slice, in map order.
func CollectValues(m map[string]int) []int {
	return slices.Collect(maps.Values(m)) // want "maporder"
}

// SortedIterKeys feeds the iterator straight into a sort (not
// flagged).
func SortedIterKeys(m map[string]int) []string {
	return slices.Sorted(maps.Keys(m))
}

// Draw uses the process-global generator.
func Draw() int {
	return rand.Int() // want "globalrand"
}

// DrawSeeded draws from a seeded stream (not flagged), built by the
// constructor the invariant wants (also not flagged).
func DrawSeeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Int()
}

// Stamp reads the wall clock inside the simulation scope.
func Stamp() time.Time {
	return time.Now() // want "walltime"
}

// Budget reads the wall clock at an annotated wall-budget site
// (suppressed).
func Budget() time.Time {
	//lint:walltime fixture: wall budget measures real runtime by design
	return time.Now()
}

//lint:sortorder the check key does not exist // want "annotation"
var _ = Keys
