package main

import (
	"syscall"
	"time"
)

// wallNow is the benchmark's clock. Host time is what this program
// exists to measure, so it reads the wall clock — here and nowhere else
// in the measurement code.
func wallNow() time.Time {
	return time.Now() //lint:allow walltime the benchmark measures host time; every timing in bench/ goes through wallNow
}

// newWallTimer is the one place the benchmark waits on the wall clock:
// the socket fleet runs in real time, and a client bounds its wait for a
// decision with it.
func newWallTimer(d time.Duration) *time.Timer {
	return time.NewTimer(d) //lint:allow walltime the socket fleet runs in real time; clients bound their wait for a decision
}

// usage is one getrusage(RUSAGE_SELF) reading.
type usage struct {
	cpu      time.Duration // user + system
	maxRSSkB int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail on Linux.
		panic("bench: getrusage: " + err.Error())
	}
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSkB: int64(ru.Maxrss),
	}
}
