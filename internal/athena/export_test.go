package athena

// QueryCounts reports how many queries the node holds by id and in its
// live index, for the external test package (the socket tests live there:
// internal/wire imports this package).
func (n *Node) QueryCounts() (known, live int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queries), len(n.live)
}

// macs counts the keyed MACs computed under the node's authority, signing
// and verifying together: the hook the admission tests count label-record
// authentications with (a Stats field would print in the dump).
func (n *Node) macs() int64 { return n.authority.MACs() }
