package main

import "testing"

// TestRun runs the workflow-driven mission end to end: anticipation,
// back-to-back decision points and the model estimator's refinement.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
