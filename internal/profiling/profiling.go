// Package profiling gives a command the -cpuprofile and -memprofile
// flags: a CPU profile of the whole command and an allocation profile
// written when it completes, both for go tool pprof. Profiles are
// wall-clock facts about one process, so they go to their own files
// and never into a result.
package profiling

import (
	"flag"
	"os"
	"runtime/pprof"
)

// Flags holds the profile paths a command was given; an empty path
// skips that profile.
type Flags struct {
	// CPU is the -cpuprofile path.
	CPU string
	// Mem is the -memprofile path.
	Mem string
}

// Bind registers -cpuprofile and -memprofile on fs.
func Bind(fs *flag.FlagSet) *Flags {
	f := new(Flags)
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile of the command to this file (for go tool pprof; not written if the command fails)")
	fs.StringVar(&f.Mem, "memprofile", "", "write an allocation profile of the command to this file when it completes (for go tool pprof)")
	return f
}

// Start starts the CPU profile and returns the function that ends it
// and writes the allocation profile: every allocation sampled since the
// process started.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			//lint:errcheck the profile already failed, and that error is the one reported
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if f.Mem == "" {
			return nil
		}
		mem, err := os.Create(f.Mem)
		if err != nil {
			return err
		}
		if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
			//lint:errcheck the profile already failed, and that error is the one reported
			mem.Close()
			return err
		}
		return mem.Close()
	}, nil
}
