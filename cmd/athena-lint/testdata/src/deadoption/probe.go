package deadoption

// ProbeOpts is an option struct by its name alone: nothing lists it, and
// it is owned as Config, ClusterConfig and SimNodeConfig are.
type ProbeOpts struct {
	// Fanout is written only by DefaultProbe, in this file: dead.
	Fanout int
	// Workload is set by caller.go's nested write c.Workload.Rows = 2:
	// fine, although only Rows is named there.
	Workload ProbeWorkload
}

// ProbeWorkload is not an option struct: its name ends in neither Config
// nor Opts.
type ProbeWorkload struct {
	Rows int
}

// DefaultProbe is ProbeOpts' constructor.
func DefaultProbe() ProbeOpts {
	return ProbeOpts{Fanout: 2}
}
