package experiment

import "testing"

// TestMembershipKernelWorkerInvariant pins the A8 rig's sharded gossip
// path: the row is a pure function of the scenario and seed, the same on
// a second run — the property that makes the n=2048 scale row
// trustworthy. (It compared worker counts until the kernel lost its
// worker pool; the name is kept.)
func TestMembershipKernelWorkerInvariant(t *testing.T) {
	opts := MembershipOpts{Fanout: 2, Seed: 7, Shards: 8}
	base, err := RunMembershipOpts(24, opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.CtlMsgs <= 0 || base.CtlBytes <= 0 {
		t.Fatalf("degenerate baseline row: %+v", base)
	}
	row, err := RunMembershipOpts(24, opts)
	if err != nil {
		t.Fatal(err)
	}
	if row != base {
		t.Errorf("second run diverged:\n%+v\nvs first\n%+v", row, base)
	}
}
