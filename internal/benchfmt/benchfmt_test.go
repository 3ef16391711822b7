package benchfmt

import (
	"runtime"
	"testing"
)

// TestStamp asserts the environment stamp records the live toolchain
// and parallelism without disturbing parsed headers.
func TestStamp(t *testing.T) {
	rep := Report{CPU: "model-from-header"}
	rep.Stamp()
	if rep.GoVersion != runtime.Version() {
		t.Fatalf("GoVersion = %q, want %q", rep.GoVersion, runtime.Version())
	}
	if rep.GoMaxProcs != runtime.GOMAXPROCS(0) || rep.GoMaxProcs < 1 {
		t.Fatalf("GoMaxProcs = %d", rep.GoMaxProcs)
	}
	if rep.NumCPU != runtime.NumCPU() || rep.NumCPU < 1 {
		t.Fatalf("NumCPU = %d", rep.NumCPU)
	}
	if rep.CPU != "model-from-header" {
		t.Fatalf("Stamp overwrote the parsed cpu header: %q", rep.CPU)
	}
}
