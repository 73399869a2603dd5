package main

import "testing"

// TestRun runs the live-membership contrast end to end: eviction and
// re-sourcing resolve the query, the static directory lets it expire.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
