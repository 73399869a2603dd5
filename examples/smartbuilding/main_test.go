package main

import "testing"

// TestRun runs the event-triggered intruder decision end to end,
// including corroboration of the noisy door sensor (annotate.Corroborator,
// annotate.Confidence).
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
