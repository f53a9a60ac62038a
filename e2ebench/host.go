package main

import (
	"runtime"
	"syscall"
)

// hostRecord is printed with every result: the real-core context a
// number needs before it can be compared with another.
type hostRecord struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Executors   int    `json:"server_executors"`
	GCWorkers   int    `json:"server_gc_workers"`
	HeapWorkers int    `json:"heap_workers"`
	Sessions    int    `json:"standing_sessions"`
	Clients     int    `json:"clients"`
}

func newHostRecord(workload string, seed int64, seconds int, trace bool) hostRecord {
	return hostRecord{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
