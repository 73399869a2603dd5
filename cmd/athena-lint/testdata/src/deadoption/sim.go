package deadoption

// SimNodeConfig is a third option struct, declared apart from Config the
// way the root package's SimNodeConfig is: one owner set spans all three,
// so a field it only passes through to Config is no write of Config's.
type SimNodeConfig struct {
	// Zone is set by the caller: fine.
	Zone string
	// Similarity is set by nobody, only passed through: dead.
	Similarity float64
}

// Build makes a node from the simulated-network options.
func Build(cfg SimNodeConfig) Config {
	return New(Config{
		ID:         "sim",
		Zone:       cfg.Zone,
		Similarity: cfg.Similarity,
	})
}
