package main

import "testing"

// TestRun runs the decision-engine loop end to end on its toy world.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
