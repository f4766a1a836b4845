//go:build !linux

package main

// Resource accounting reads getrusage and /proc; elsewhere the
// benchmark still runs and these metrics read zero.

func cpuSeconds() float64   { return 0 }
func resetPeakRSS()         {}
func peakRSSMB() float64    { return 0 }
func cpuModel() string      { return "" }
func kernelRelease() string { return "" }
func lowestPriority()       {}
