package main

import (
	"encoding/json"
	"fmt"
	"math"

	"ppcsim"
)

// traceFacts are the figures the property checks need from a trace,
// computed here from its references rather than by the simulator.
type traceFacts struct {
	name          string
	reads         int64
	distinctReads int
	computeSec    float64
}

func factsOf(tr *ppcsim.Trace) traceFacts {
	f := traceFacts{name: tr.Name}
	seen := make(map[int64]bool)
	sum := 0.0
	for _, r := range tr.Refs {
		sum += r.ComputeMs
		if r.Write {
			continue
		}
		f.reads++
		seen[int64(r.Block)] = true
	}
	f.distinctReads = len(seen)
	f.computeSec = sum / 1000
	return f
}

// checkResult verifies what every Result of a run over the trace must
// satisfy, whatever the policy: the process computes exactly the
// trace's compute time, every read is a hit or a miss (writes bypass
// the cache), a cache that starts empty fetches each block read at
// least once, and elapsed time splits into compute, driver and stall.
func checkResult(f traceFacts, r ppcsim.Result) error {
	switch {
	case r.Trace != f.name:
		return fmt.Errorf("trace %q, want %q", r.Trace, f.name)
	case !closeTo(r.ComputeSec, f.computeSec):
		return fmt.Errorf("ComputeSec %v, trace computes %v", r.ComputeSec, f.computeSec)
	case r.CacheHits+r.CacheMisses != f.reads:
		return fmt.Errorf("CacheHits+CacheMisses = %d, trace has %d reads", r.CacheHits+r.CacheMisses, f.reads)
	case r.Fetches < int64(f.distinctReads):
		return fmt.Errorf("Fetches %d < %d distinct blocks read", r.Fetches, f.distinctReads)
	case !closeTo(r.ElapsedSec, r.ComputeSec+r.DriverTimeSec+r.StallTimeSec):
		return fmt.Errorf("ElapsedSec %v != compute %v + driver %v + stall %v",
			r.ElapsedSec, r.ComputeSec, r.DriverTimeSec, r.StallTimeSec)
	}
	return nil
}

// checkBody decodes a Result JSON body and checks it against the trace.
func checkBody(f traceFacts, body []byte) error {
	var r ppcsim.Result
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("result is not Result JSON: %v", err)
	}
	return checkResult(f, r)
}

// closeTo compares within a relative tolerance of 1e-9.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
