// Package benchfmt holds the host-stamp document shape cmd/labbench
// embeds in every result set (Report, stamped by Stamp with the Go
// version and parallelism a run was measured under). The parser of
// `go test -bench` output that used to fill the rest of the shape is
// gone with the -benchtime=1x record; the types stay because labbench
// compiles against them.
package benchfmt

import "runtime"

// Benchmark is one `go test -bench` result line. The three standard
// Go metrics get named fields; every other `<value> <unit>` pair
// (b.ReportMetric output) lands in Metrics keyed by unit.
type Benchmark struct {
	// Name is the benchmark name without the "Benchmark" prefix and
	// without the -N GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the benchmark ran under (the -N name
	// suffix; 1 when the suffix is absent).
	Procs int `json:"procs"`
	// Iterations is b.N for the reported timing.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the ns/op metric.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp is the B/op metric, if -benchmem was on.
	BytesPerOp *float64 `json:"bytes_per_op,omitempty"`
	// AllocsPerOp is the allocs/op metric, if -benchmem was on.
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds any further unit → value pairs on the line.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full document: the `key: value` header lines go test
// prints (goos, goarch, pkg, cpu), an optional caller-supplied label,
// and every benchmark line.
type Report struct {
	// Label is the caller-supplied run label (e.g. smoke, ci-smoke).
	Label string `json:"label,omitempty"`
	// Goos echoes the goos header line.
	Goos string `json:"goos,omitempty"`
	// Goarch echoes the goarch header line.
	Goarch string `json:"goarch,omitempty"`
	// Pkg echoes the pkg header line.
	Pkg string `json:"pkg,omitempty"`
	// CPU echoes the cpu header line.
	CPU string `json:"cpu,omitempty"`
	// GoVersion is the toolchain that ran the conversion (Stamp), so
	// archived documents record the environment they were measured in.
	GoVersion string `json:"go_version,omitempty"`
	// GoMaxProcs is runtime.GOMAXPROCS at conversion time (Stamp).
	GoMaxProcs int `json:"go_max_procs,omitempty"`
	// NumCPU is runtime.NumCPU at conversion time (Stamp); with the
	// cpu header line it pins the hardware a trajectory point ran on.
	NumCPU int `json:"num_cpu,omitempty"`
	// Benchmarks holds every parsed result line in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Stamp records the running environment — Go version, GOMAXPROCS and
// CPU count — into the report, so every archived result set
// identifies the toolchain and parallelism it was measured under.
// Stamp leaves the cpu model string (CPU) to the caller.
func (r *Report) Stamp() {
	r.GoVersion = runtime.Version()
	r.GoMaxProcs = runtime.GOMAXPROCS(0)
	r.NumCPU = runtime.NumCPU()
}
