// Package prof wires the standard runtime/pprof CPU and allocation
// profiles behind the -cpuprofile/-memprofile flags the cmd binaries
// share, so a slow sweep or a leaking slot path can be profiled without
// recompiling.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// EnableContentionProfiles turns on the runtime's blocking and mutex
// profiles, which stay empty until sampled: blockRate is the
// nanoseconds-blocked threshold fed to runtime.SetBlockProfileRate (1
// records every event; 0 leaves blocking profiling off) and
// mutexFraction the sampling rate fed to
// runtime.SetMutexProfileFraction (1 records every contended lock; 0
// leaves mutex profiling off). The profiles are then readable from the
// net/http/pprof endpoint (/debug/pprof/block, /debug/pprof/mutex),
// which is how a stalled cluster clock — a batch waiting at an engine's
// door, or the checkpoint writer contending the clock lock — is
// diagnosed in place.
func EnableContentionProfiles(blockRate, mutexFraction int) {
	if blockRate > 0 {
		runtime.SetBlockProfileRate(blockRate)
	}
	if mutexFraction > 0 {
		runtime.SetMutexProfileFraction(mutexFraction)
	}
}

// Start begins CPU profiling when cpuPath is non-empty and returns a
// stop function that must be called exactly once, after the profiled
// work finishes: it stops the CPU profile and, when memPath is
// non-empty, writes an allocation profile (after a GC, so the live-heap
// numbers are settled). Either path may be empty; Start(nil-equivalent)
// returns a no-op stop.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: starting CPU profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("prof: closing CPU profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("prof: %w", err)
			}
			runtime.GC()
			werr := pprof.Lookup("allocs").WriteTo(f, 0)
			cerr := f.Close()
			if werr != nil {
				return fmt.Errorf("prof: writing allocation profile: %w", werr)
			}
			if cerr != nil {
				return fmt.Errorf("prof: closing allocation profile: %w", cerr)
			}
		}
		return nil
	}, nil
}
