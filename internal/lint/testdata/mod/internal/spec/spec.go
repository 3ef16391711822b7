// Package spec is a canonical-completeness fixture: Spec stands in
// for lab.Trial/lab.Sweep, canonical.go for the cache-key encoder.
package spec

// Nested is reachable from Spec through a field, so its own fields
// fall under the contract too.
type Nested struct {
	// Kept is serialized by the encoder (not flagged).
	Kept int
	// Dropped is neither serialized nor excluded.
	Dropped int // want "in canonical.go"
}

// List is a named slice: the contract recurses through it, so Item
// falls under the watch set even though no field has type Item.
type List []Item

// Item is reachable only through the named List slice.
type Item struct {
	// Val is serialized by the encoder (not flagged).
	Val int
	// Lost is neither serialized nor excluded.
	Lost int // want "in canonical.go"
}

// Opaque is excluded wholesale via the type-exclusion list; its
// fields are never individually watched.
type Opaque struct {
	// Hidden needs no serialization: the whole type is excluded.
	Hidden int
}

// Spec is the fixture root struct.
type Spec struct {
	// A is serialized by the encoder (not flagged).
	A int
	// B is the dummy result-affecting field nobody serialized.
	B int // want "in canonical.go"
	// Skipped is deliberately excluded with a reason (not flagged).
	Skipped int
	// Both is serialized AND excluded — a stale exclusion entry.
	Both int // want "canonical"
	// Ann is unserialized but annotated in the source (suppressed).
	//lint:canonical fixture: observation-only knob
	Ann int
	// N pulls Nested into the watched set.
	N Nested
	// L pulls Item into the watched set through the named slice.
	L List
	// O stops the recursion at the excluded type.
	O *Opaque
}
