package main

import "testing"

// TestRun runs both fault injections with the recovery layer on and
// off, over the simulated network.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
