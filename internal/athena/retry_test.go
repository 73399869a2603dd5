package athena

import (
	"testing"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/core"
)

// A link outage eats the forwarded request; the retransmission layer must
// recover the query before its deadline. Fully deterministic: the outage
// window is scheduled, no loss randomness is involved.
func TestRetransmissionRecoversFromOutage(t *testing.T) {
	world := staticWorld{"lc1": true, "lc2": true}
	r := buildRig(t, SchemeLVF, world, nil)
	// nodeB -> nodeC is down when the forwarded request crosses it, and
	// back up well before the retry window lapses.
	if err := r.net.ScheduleLinkOutage("nodeB", "nodeC", tBase, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	expr := boolexpr.ToDNF(boolexpr.MustParse("lc1 & lc2"))
	if _, err := r.nodes["nodeA"].QueryInit(expr, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, 25*time.Second)

	results := r.nodes["nodeA"].Results()
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	if results[0].Status != core.ResolvedTrue {
		t.Fatalf("status = %v, want resolved-true (retransmission did not recover the lost request)", results[0].Status)
	}
	if got := r.nodes["nodeB"].Stats().Retransmits; got < 1 {
		t.Errorf("nodeB retransmits = %d, want >= 1", got)
	}
	if got := r.nodes["nodeA"].Stats().RequestTimeouts; got < 1 {
		t.Errorf("nodeA request timeouts = %d, want >= 1", got)
	}
}

// The same outage with retries disabled strands the query: the lost
// request is never re-forwarded and the only safety net (the fixed
// requestTimeout) lies beyond the deadline.
func TestOutageWithoutRetriesExpires(t *testing.T) {
	world := staticWorld{"lc1": true, "lc2": true}
	r := buildRig(t, SchemeLVF, world, func(c *Config) { c.DisableRetries = true })
	if err := r.net.ScheduleLinkOutage("nodeB", "nodeC", tBase, 4*time.Second); err != nil {
		t.Fatal(err)
	}
	expr := boolexpr.ToDNF(boolexpr.MustParse("lc1 & lc2"))
	if _, err := r.nodes["nodeA"].QueryInit(expr, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, 25*time.Second)

	results := r.nodes["nodeA"].Results()
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	if results[0].Status != core.Expired {
		t.Fatalf("status = %v, want expired (retries were disabled)", results[0].Status)
	}
	if got := r.nodes["nodeB"].Stats().Retransmits; got != 0 {
		t.Errorf("nodeB retransmits = %d, want 0 with retries disabled", got)
	}
}

// Origin-side backoff: with the only covering source churned out for
// good, the origin's re-requests back off exponentially — the query
// expires without flooding the network with retries.
func TestBackoffBoundsRequestVolume(t *testing.T) {
	world := staticWorld{"lc1": true}
	r := buildRig(t, SchemeLVF, world, nil)
	if err := r.net.SetNodeDown("nodeC", true); err != nil {
		t.Fatal(err)
	}
	expr := boolexpr.ToDNF(boolexpr.MustParse("lc1"))
	if _, err := r.nodes["nodeA"].QueryInit(expr, 40*time.Second); err != nil {
		t.Fatal(err)
	}
	r.run(t, 45*time.Second)

	results := r.nodes["nodeA"].Results()
	if len(results) != 1 || results[0].Status != core.Expired {
		t.Fatalf("results = %+v, want one expired query", results)
	}
	// Backoff bounds the request volume: attempts at ~6, 12, 24, 30s...
	// within a 40s deadline that is at most a handful of re-requests, not
	// one per pump.
	sent := r.nodes["nodeA"].Stats().RequestsSent
	if sent < 2 || sent > 8 {
		t.Errorf("origin sent %d requests; want a small backoff-bounded number (2..8)", sent)
	}
}

// retryDelay's ladder at the recovery layer's fixed constants: 6 s doubling
// per attempt up to the 30 s cap, plus size/RetryBandwidth on every rung —
// at the default 50 kB/s and at the effectively-infinite bandwidth the socket
// benchmark sets (bench/tcp.go), the two values RetryBandwidth takes.
func TestRetryDelayLadder(t *testing.T) {
	backoff := []time.Duration{6 * time.Second, 12 * time.Second, 24 * time.Second,
		30 * time.Second, 30 * time.Second, 30 * time.Second}
	for _, tc := range []struct {
		name      string
		bandwidth float64 // 0 = Config default
		size      int64
		allowance time.Duration
	}{
		{"default/0B", 0, 0, 0},
		{"default/1MB", 0, 1_000_000, 20 * time.Second},
		{"1e12/0B", 1e12, 0, 0},
		{"1e12/1MB", 1e12, 1_000_000, time.Microsecond},
	} {
		r := buildRig(t, SchemeLVF, staticWorld{}, func(c *Config) { c.RetryBandwidth = tc.bandwidth })
		n := r.nodes["nodeA"]
		for attempt, base := range backoff {
			if got, want := n.retryDelay(attempt, tc.size), base+tc.allowance; got != want {
				t.Errorf("%s: retryDelay(%d, %d) = %v, want %v", tc.name, attempt, tc.size, got, want)
			}
		}
	}
}
