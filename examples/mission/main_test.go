package main

import "testing"

// TestRun runs the workflow-driven mission end to end: the anticipated
// labels printed per step, back-to-back decision points and the
// estimator's learned probabilities.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
