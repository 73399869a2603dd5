// Package deadoption is a fixture corpus for the deadoption check: a
// miniature of internal/athena's node.go / cluster.go / caller split, with
// the root package's simnet.go as a third option struct in sim.go.
// Config and its constructor live here; a write in this file (the
// constructor's own default) never counts as somebody setting the option.
package deadoption

// Config assembles a node.
type Config struct {
	// ID is set by every caller: fine.
	ID string
	// Window is set by the caller in caller.go: fine.
	Window int
	// Fanout reaches here only through ClusterConfig.Fanout, which the
	// caller sets: fine on both structs.
	Fanout int
	// TTL is written by New's default below and by nothing else: dead.
	TTL int
	// Backoff is copied from ClusterConfig.Backoff, which nobody sets: the
	// copy does not make it live, and both are reported.
	Backoff float64
	// Latency is written nowhere at all: dead.
	Latency int
	// Zone reaches here only through SimNodeConfig.Zone, which the caller
	// sets: fine on both structs.
	Zone string
	// Similarity is copied from SimNodeConfig.Similarity, which nobody
	// sets: both are reported.
	Similarity float64
	// scratch is unexported, so not an option.
	scratch int
}

// New applies defaults; these writes are in the declaring file.
func New(cfg Config) Config {
	if cfg.TTL <= 0 {
		cfg.TTL = 4
	}
	if cfg.Backoff <= 1 {
		cfg.Backoff = 2
	}
	cfg.scratch = cfg.Latency
	return cfg
}
