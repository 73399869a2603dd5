package experiment

import "testing"

// TestKernelScaleWorkerInvariant pins the A10 rig's determinism claim:
// the executed-event and delivery counts are a pure function of (n, seed),
// the same on a second run. (It compared worker counts until the kernel
// lost its worker pool; the name is kept.)
func TestKernelScaleWorkerInvariant(t *testing.T) {
	base, err := RunKernelScale(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if base.Events == 0 || base.Delivered == 0 {
		t.Fatalf("degenerate baseline: %+v", base)
	}
	row, err := RunKernelScale(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if row.Events != base.Events || row.Delivered != base.Delivered {
		t.Errorf("second run: events/delivered = %d/%d, first %d/%d",
			row.Events, row.Delivered, base.Events, base.Delivered)
	}
}

// TestAblationKernelScaleTrimmed exercises the sweep plumbing (labels,
// one row per size) on sizes small enough for the test budget.
func TestAblationKernelScaleTrimmed(t *testing.T) {
	rows, err := AblationKernelScale([]int{32, 48}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Label != "n=32" || rows[1].Label != "n=48" {
		t.Errorf("labels = %q, %q", rows[0].Label, rows[1].Label)
	}
	if rows[0].Events == 0 || rows[1].Events <= rows[0].Events {
		t.Errorf("events = %d, %d: want a positive count growing with n", rows[0].Events, rows[1].Events)
	}
	if out := RenderKernelScale(rows); len(out) == 0 {
		t.Error("empty render")
	}
}
