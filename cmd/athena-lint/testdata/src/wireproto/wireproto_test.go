// Test-side coverage for the fixture codec, parsed (not compiled) by the
// wireproto check: FuzzChunk is deliberately absent and Chunk is never
// constructed — the coverage gaps the check must flag — while Retired is
// exercised by a plain test so only its fuzz target is missing.
package wireproto

import "testing"

func FuzzEcho(f *testing.F) {
	f.Fuzz(func(t *testing.T, seq uint64) {
		roundTrip(t, &Echo{Seq: seq})
	})
}

func FuzzEchoReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, seq uint64) {
		roundTrip(t, &EchoReply{Seq: seq})
	})
}

func FuzzProbe(f *testing.F) {
	f.Fuzz(func(t *testing.T, _ uint64) {
		roundTrip(t, &Probe{})
	})
}

func FuzzRelay(f *testing.F) {
	f.Fuzz(func(t *testing.T, seq uint64) {
		roundTrip(t, &Relay{Seq: seq})
	})
}

func TestRetiredStillDecodes(t *testing.T) {
	roundTrip(t, &Retired{})
}

func roundTrip(t *testing.T, payload any) {
	t.Helper()
	var buf []byte
	id := encodePayload(&buf, payload)
	if id == 0 {
		t.Fatalf("encodePayload rejected %T", payload)
	}
	if got := decodePayload(id); got == nil {
		t.Fatalf("decodePayload(%d) = nil", id)
	}
}
