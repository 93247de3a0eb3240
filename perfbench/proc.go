package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// procCPU is a process's user+system CPU from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(buf)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// resetPeakRSS restarts a process's high-water resident set count.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// sampleRSS reads and resets a process's high-water RSS once a second
// until the returned function is called, which returns every window's
// high-water mark in MB, the last partial window included. The single
// highest mark moves with GC timing and with which simulations happen
// to run side by side; the median window is what repeats.
func sampleRSS(pid int) func() ([]float64, error) {
	stop, done := make(chan struct{}), make(chan struct{})
	var marks []float64
	var err error
	window := func() {
		mb, e := peakRSS(pid)
		marks = append(marks, mb)
		err = errors.Join(err, e, resetPeakRSS(pid))
	}
	err = resetPeakRSS(pid)
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				window()
			case <-stop:
				window()
				return
			}
		}
	}()
	return func() ([]float64, error) {
		close(stop)
		<-done
		return marks, err
	}
}

// peakRSS is a process's high-water resident set in MB.
func peakRSS(pid int) (float64, error) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM")
}
