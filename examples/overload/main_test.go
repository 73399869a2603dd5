package main

import "testing"

// TestRun runs the bottleneck contrast end to end: FIFO, infomax
// triage and approximate substitution.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
