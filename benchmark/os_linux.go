//go:build linux

package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// cpuSeconds returns the process's cumulative user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procStatusField returns the value of one "Key:\tvalue" line of
// /proc/self/status, or "" when absent.
func procStatusField(key string) string {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// resetPeakRSS restarts the resident-set high-water mark from the
// current resident set, so the next peakRSSMB reads the peak since this
// call. Where the kernel refuses, the mark stays the whole process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procStatusField("VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// cpuModel and kernelRelease feed the run fingerprint.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// lowestPriority drops the calling thread to nice 19 (on Linux a nice
// value belongs to the thread).
func lowestPriority() {
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) // best effort: a refused renice only makes the spinner compete
}
