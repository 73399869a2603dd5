package main

import "testing"

// TestRun runs the post-earthquake route decision twice under label
// sharing, the second answered from signed label records.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
