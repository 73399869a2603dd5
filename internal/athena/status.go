package athena

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"time"

	"athena/internal/metrics"
)

// PeerStatus is one directory source's state as seen from this node:
// whether the directory lists it, whether the failure detector considers
// it alive, and when it was last heard from.
type PeerStatus struct {
	// Present reports whether the directory currently lists the source.
	Present bool `json:"present"`
	// Withdrawn marks an explicit leave (vs. a local eviction).
	Withdrawn bool `json:"withdrawn,omitempty"`
	// Alive is the running failure detector's verdict: heard from within
	// the miss budget (flooded heartbeats), or listed and not currently
	// suspected (SWIM, where a sampled prober's silence toward one peer is
	// not evidence). Without membership it mirrors Present (a static
	// directory has no liveness signal).
	Alive bool `json:"alive"`
	// Seq is the source's highest processed advertisement sequence number.
	Seq uint64 `json:"seq"`
	// LastHeard is the last heartbeat or advertisement time (zero if the
	// source was never heard from directly).
	LastHeard time.Time `json:"last_heard,omitempty"`
}

// PeerLiveness reports every known directory source's status, including
// evicted and withdrawn peers.
func (n *Node) PeerLiveness() map[string]PeerStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.now()
	out := make(map[string]PeerStatus)
	for _, src := range n.dir.AllSources() {
		seq, present, withdrawn := n.dir.Known(src)
		ps := PeerStatus{Present: present, Withdrawn: withdrawn, Seq: seq}
		switch {
		case src == n.id:
			ps.Alive = true
			ps.LastHeard = now
		case n.member == nil:
			ps.Alive = present
		default:
			ps.LastHeard, ps.Alive = n.member.liveness(src, present, now)
		}
		out[src] = ps
	}
	return out
}

// StatusSnapshot is the JSON document the status endpoint serves: a
// point-in-time view of one node's directory, peers, counters and
// instrument values.
type StatusSnapshot struct {
	Node             string                `json:"node"`
	Time             time.Time             `json:"time"`
	DirectoryVersion uint64                `json:"directory_version"`
	Peers            map[string]PeerStatus `json:"peers"`
	// Stats are the node's lifetime counters (evictions, retries, cache
	// answers, heartbeats, ...).
	Stats Stats `json:"stats"`
	// CacheHitRatio is the content store's hit ratio counting approximate
	// substitutions as hits (1 when the store saw no lookups).
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// Metrics is the node's registry snapshot — counters, gauges, and the
	// fetch-latency / decision-age histograms. Empty when the node runs
	// uninstrumented.
	Metrics metrics.Snapshot `json:"metrics"`
	// Sharding is the directory-sharding view (owned shards, retained
	// entries, routed-lookup counters); absent when sharding is off.
	Sharding *ShardInfo `json:"sharding,omitempty"`
}

// StatusSnapshot captures the node's current status.
func (n *Node) StatusSnapshot() StatusSnapshot {
	peers := n.PeerLiveness()
	shard, sharded := n.ShardInfo()
	n.mu.Lock()
	s := StatusSnapshot{
		Node:             n.id,
		Time:             n.now(),
		DirectoryVersion: n.dir.Version(),
		Peers:            peers,
		Stats:            n.stats,
	}
	cs := n.store.Stats()
	reg := n.reg
	n.mu.Unlock()

	hits := cs.Hits + cs.ApproxHits
	if total := hits + cs.Misses; total > 0 {
		s.CacheHitRatio = float64(hits) / float64(total)
	} else {
		s.CacheHitRatio = 1
	}
	s.Metrics = reg.Snapshot()
	if sharded {
		s.Sharding = &shard
	}
	return s
}

// StatusMux returns the node's observability mux:
//
//	/statusz          the StatusSnapshot as JSON
//	/debug/vars       expvar
//	/debug/pprof/...  runtime profiles
//
// cmd/athenad serves it when started with -status.
func (n *Node) StatusMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(n.StatusSnapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
