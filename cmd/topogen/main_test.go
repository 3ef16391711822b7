package main

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lab"
)

// TestGenerateAllKinds runs one spec of every generator kind through
// every output format, and checks that each graph is connected.
func TestGenerateAllKinds(t *testing.T) {
	for _, spec := range []string{"clique 12", "line 12", "ring 12", "star 12", "tree 12 2",
		"grid 4 3", "er 12 0.5", "ba 12 2", "internet 12"} {
		ts, err := lab.ParseTopoString(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		g, err := ts.Build(rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if g.NumNodes() == 0 || !g.Connected() {
			t.Fatalf("%s: %d nodes, connected %v", spec, g.NumNodes(), g.Connected())
		}
		for _, format := range []string{"dot", "caida", "iplane"} {
			var sb strings.Builder
			if err := write(&sb, spec, 1, format, 3, false); err != nil || sb.Len() == 0 {
				t.Fatalf("%s -format %s: %d bytes, %v", spec, format, sb.Len(), err)
			}
		}
	}
	for _, bad := range []struct{ spec, format string }{
		{"mobius 10", "dot"},
		{"tree 7", "dot"},
		{"clique 4", "png"},
	} {
		if err := write(&strings.Builder{}, bad.spec, 1, bad.format, 3, false); err == nil {
			t.Fatalf("%q -format %s: want an error", bad.spec, bad.format)
		}
	}
}

// dot renders a topology spec exactly as the -format dot path does.
func dot(t *testing.T, spec string, seed int64, labels bool) string {
	t.Helper()
	var sb strings.Builder
	if err := write(&sb, spec, seed, "dot", 3, labels); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestDOTGolden pins the DOT rendering byte for byte — provider
// hierarchies as directed p2c edges (with and without relationship
// labels) and seeded random peer graphs as undirected edges — so the
// workload figures can rely on stable topology rendering.
func TestDOTGolden(t *testing.T) {
	if got, want := dot(t, "tree 7 2", 1, false), `digraph "astopo" {
  node [shape=circle];
  "AS1";
  "AS2";
  "AS3";
  "AS4";
  "AS5";
  "AS6";
  "AS7";
  "AS1" -> "AS2";
  "AS1" -> "AS3";
  "AS2" -> "AS4";
  "AS2" -> "AS5";
  "AS3" -> "AS6";
  "AS3" -> "AS7";
}
`; got != want {
		t.Fatalf("tree DOT golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if got, want := dot(t, "tree 7 2", 1, true), `digraph "astopo" {
  node [shape=circle];
  "AS1";
  "AS2";
  "AS3";
  "AS4";
  "AS5";
  "AS6";
  "AS7";
  "AS1" -> "AS2" [label="p2c"];
  "AS1" -> "AS3" [label="p2c"];
  "AS2" -> "AS4" [label="p2c"];
  "AS2" -> "AS5" [label="p2c"];
  "AS3" -> "AS6" [label="p2c"];
  "AS3" -> "AS7" [label="p2c"];
}
`; got != want {
		t.Fatalf("labeled tree DOT golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Seeded random generation must render identically across runs —
	// the determinism the golden really guards.
	if got, want := dot(t, "er 6 0.8", 3, false), `digraph "astopo" {
  node [shape=circle];
  "AS1";
  "AS2";
  "AS3";
  "AS4";
  "AS5";
  "AS6";
  "AS1" -> "AS2" [dir=none];
  "AS1" -> "AS3" [dir=none];
  "AS1" -> "AS5" [dir=none];
  "AS2" -> "AS3" [dir=none];
  "AS2" -> "AS4" [dir=none];
  "AS2" -> "AS5" [dir=none];
  "AS2" -> "AS6" [dir=none];
  "AS3" -> "AS4" [dir=none];
  "AS3" -> "AS5" [dir=none];
  "AS3" -> "AS6" [dir=none];
  "AS4" -> "AS6" [dir=none];
}
`; got != want {
		t.Fatalf("er DOT golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
