package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile holds the -cpuprofile and -memprofile destinations, so hot
// paths can be inspected with `go tool pprof` without recompiling. The
// CPU profile covers Start..Stop, and the heap profile is a post-GC
// snapshot taken at Stop (in-use allocations, the number that matters for
// the simulator's steady-state footprint).
type Profile struct {
	cpuProfile string
	memProfile string
	cpuFile    *os.File
}

// RegisterProfile installs -cpuprofile and -memprofile on fs (use
// flag.CommandLine for a main package) and returns the handle to
// Start/Stop around the program's work.
func RegisterProfile(fs *flag.FlagSet) *Profile {
	f := &Profile{}
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to `file` (inspect with go tool pprof)")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a post-GC heap profile to `file` at exit")
	return f
}

// Start begins CPU profiling when -cpuprofile was given. Call after
// flag parsing and before the workload.
func (f *Profile) Start() error {
	if f.cpuProfile == "" {
		return nil
	}
	file, err := os.Create(f.cpuProfile)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return fmt.Errorf("profiling: %w", err)
	}
	f.cpuFile = file
	return nil
}

// Stop finishes the CPU profile and writes the heap profile, as
// requested. Safe to call when neither flag was given.
func (f *Profile) Stop() error {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		err := f.cpuFile.Close()
		f.cpuFile = nil
		if err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
	}
	if f.memProfile == "" {
		return nil
	}
	file, err := os.Create(f.memProfile)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	runtime.GC() // report live objects, not transient garbage
	if err := errors.Join(pprof.WriteHeapProfile(file), file.Close()); err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	return nil
}
