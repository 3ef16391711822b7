package main

import (
	"os"
	"runtime/pprof"
)

// startProfiles starts a CPU profile into cpuPath and returns the
// function that ends it and writes the allocation profile (every
// allocation sampled since the process started) into memPath; an empty
// path skips that profile. Profiles are wall-clock facts about this
// process, so they go to their own files and never into a result.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
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
		if memPath == "" {
			return nil
		}
		mem, err := os.Create(memPath)
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
