package main

import (
	"runtime"
	"syscall"
	"time"
)

// procStart is taken when the package initialises, a few milliseconds after
// the process starts.
var procStart = time.Now()

var procStartUsed bool

// setupFrom is the instant a workload's first set-up is timed from: process
// start for the first workload this process runs (what the driver's
// one-workload runs measure), entry to the workload for every later one.
func setupFrom() time.Time {
	if procStartUsed {
		return time.Now()
	}
	procStartUsed = true
	return procStart
}

// procMark is one reading of the process-wide meters at a section boundary.
type procMark struct {
	at         time.Time
	totalAlloc uint64 // bytes allocated so far (runtime.MemStats.TotalAlloc)
	numGC      uint32
	gcPauseNS  uint64
	cpuNS      int64 // user + system CPU time of the process
}

// mark reads the meters. ReadMemStats stops the world for some tens of
// microseconds, so it is called only at section boundaries, never per op.
func mark() procMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	var cpu int64
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = ru.Utime.Nano() + ru.Stime.Nano()
	}
	return procMark{at: time.Now(), totalAlloc: ms.TotalAlloc, numGC: ms.NumGC,
		gcPauseNS: ms.PauseTotalNs, cpuNS: cpu}
}

// peakRSSMB is the process's high-water resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// allocMBPerKop is the end-to-end allocation metric: MB allocated per
// thousand operations, as the median over the timed section's segments
// (marks holds their boundaries). The median, because a GC cycle that falls
// differently empties the tensor pools once more or once less per run, which
// moved a whole-section total by 5-10 % on one train_compute run in five.
func allocMBPerKop(marks []procMark, opsPerSegment int64) float64 {
	if opsPerSegment <= 0 {
		return 0
	}
	var perKop []float64
	for i := 1; i < len(marks); i++ {
		mb := float64(marks[i].totalAlloc-marks[i-1].totalAlloc) / 1e6
		perKop = append(perKop, mb/(float64(opsPerSegment)/1000))
	}
	return median(perKop)
}

// procLayer fills the proc.* per-layer metrics for a timed section.
func procLayer(m map[string]float64, from, to procMark, ops int64) {
	if ops > 0 {
		m["proc.cpu_ms_per_op"] = float64(to.cpuNS-from.cpuNS) / 1e6 / float64(ops)
	}
	m["proc.gc_count"] = float64(to.numGC - from.numGC)
	m["proc.gc_pause_ms"] = float64(to.gcPauseNS-from.gcPauseNS) / 1e6
	m["proc.peak_rss_mb"] = peakRSSMB()
}
