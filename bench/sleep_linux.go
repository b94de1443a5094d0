//go:build linux

package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling thread until t in nanosleep(2), with
// the thread's timer slack first set to 1 ns (prctl PR_SET_TIMERSLACK).
// The Go timer wakes an idle process only at millisecond granularity,
// far coarser than the latencies measured.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		const prSetTimerSlack = 29
		syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep (EINTR) loops and sleeps the remainder.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
