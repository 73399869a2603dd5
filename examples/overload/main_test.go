package main

import "testing"

// TestRun runs the bottleneck contrast end to end: FIFO against infomax
// triage.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
