package main

import (
	"context"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// dist is a set of timing samples in milliseconds.
type dist []float64

func (d *dist) add(ms float64) { *d = append(*d, ms) }

func (d *dist) addDur(t time.Duration) { d.add(ms(t)) }

func ms(t time.Duration) float64 { return float64(t) / 1e6 }

// q returns the q-quantile (0..1) by linear interpolation between order
// statistics; 0 for an empty set.
func (d dist) q(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQ is the highest quantile that leaves at least ten samples beyond
// it, so a tail is never read off a handful of points (and never below
// the median).
func tailQ(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return math.Floor((1-10/float64(n))*1e4) / 1e4
}

func qName(q float64) string {
	return "p" + strconv.FormatFloat(q*100, 'f', -1, 64)
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat
// (clock ticks at the kernel's USER_HZ of 100).
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// The command name may contain spaces; fields resume after ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// procHWM returns a process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetHWM restarts this process's VmHWM at its current resident set
// (writing 5 to /proc/self/clear_refs), so the next procHWM reads the
// peak since this call.
func resetHWM() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 { return dist(xs).q(0.5) }

// sleepCtx sleeps for d and reports false if ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
