package athena

import (
	"fmt"
	"time"
)

// WallTimers schedules node callbacks on real time, for nodes running
// outside the simulator (cmd/athenad). Its timers can be stopped
// (StopTimers): a node stops each one when what it guards is settled, so
// a finished decision holds no timer, and a daemon's heap does not grow
// with its decision rate times the longest retry window.
type WallTimers struct{}

var (
	_ Timers     = WallTimers{}
	_ StopTimers = WallTimers{}
)

// After implements Timers with time.AfterFunc.
func (w WallTimers) After(d time.Duration, fn func()) { w.AfterStop(d, fn) }

// AfterStop implements StopTimers: the handle is the *time.Timer.
func (WallTimers) AfterStop(d time.Duration, fn func()) Stopper {
	if d < 0 {
		d = 0
	}
	return time.AfterFunc(d, fn)
}

// AfterArg implements Timers. Wall-clock timers gain nothing from the
// no-closure form, so it simply wraps the pair.
func (WallTimers) AfterArg(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	time.AfterFunc(d, func() { fn(arg) })
}

// StaticRouter is a Router backed by a fixed next-hop table, for
// deployments without a routing protocol. Destinations without an entry
// are assumed to be direct neighbors.
type StaticRouter struct {
	// Self is the local node id.
	Self string
	// NextHops maps destination node id to the neighbor to use.
	NextHops map[string]string
}

var _ Router = (*StaticRouter)(nil)

// NextHop implements Router.
func (r *StaticRouter) NextHop(from, to string) (string, error) {
	if from != r.Self {
		return "", fmt.Errorf("athena: static router for %q asked from %q", r.Self, from)
	}
	if hop, ok := r.NextHops[to]; ok {
		return hop, nil
	}
	return to, nil // assume direct neighbor
}
