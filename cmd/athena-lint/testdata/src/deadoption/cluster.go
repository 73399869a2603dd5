package deadoption

// ClusterConfig tunes a deployment of nodes.
type ClusterConfig struct {
	// Fanout is set by the caller: fine.
	Fanout int
	// Backoff is only ever passed through: dead.
	Backoff float64
	// Slack is defaulted below and set by nobody: dead.
	Slack int
	// Seed is assigned, not keyed, by the caller: fine.
	Seed int64
}

// NewCluster passes its options through to every node. The literal is
// outside config.go, so its keys are writes of Config's fields — but one
// whose value is just another option field is only as live as that field.
func NewCluster(cfg ClusterConfig) Config {
	if cfg.Slack <= 0 {
		cfg.Slack = 5
	}
	return New(Config{
		ID:      "n0",
		Fanout:  cfg.Fanout,
		Backoff: cfg.Backoff,
	})
}
