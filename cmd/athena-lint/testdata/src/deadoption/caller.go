package deadoption

// Run is the caller: what it sets is what earns a field.
func Run() (Config, Config) {
	cc := ClusterConfig{Fanout: 3}
	cc.Seed = 7
	return NewCluster(cc), New(Config{ID: "solo", Window: 8})
}
