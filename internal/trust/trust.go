// Package trust implements the paper's label records and trust machinery
// (Section III-B): label values computed by annotators are signed, note
// which evidence objects were used, and are accepted by a query source only
// if its trust policy accepts the annotator. Signing uses HMAC-SHA256 with
// per-annotator keys issued by a shared Authority (a stand-in for a PKI).
// Each key keeps one keyed MAC state for its whole life, so a verification
// allocates nothing and a signature only its hex string;
// Authority.Replacements tells a holder of verified records when a key
// they were verified under has been replaced, and Signer.Current a signer
// whether its own key has been.
package trust

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Label is the paper's cached label record: the resolved predicate value,
// who computed it, from which evidence, when, and for how long it stays
// valid. This is the unit that label sharing (Section VI-D) propagates in
// place of megabyte evidence objects.
type Label struct {
	// Name is the label (predicate) name, e.g. "viableA".
	Name string `json:"label"`
	// Value is the resolved boolean value.
	Value bool `json:"value"`
	// Annotator identifies who computed the value.
	Annotator string `json:"annotator"`
	// Evidence lists the object IDs examined to compute the value.
	Evidence []string `json:"evidence"`
	// Computed is when the annotation was made.
	Computed time.Time `json:"computed"`
	// Validity bounds how long the annotation stays fresh; it inherits
	// the minimum remaining validity of the evidence used.
	Validity time.Duration `json:"validityNanos"`
	// Signature is the annotator's HMAC over the canonical record.
	Signature string `json:"signature"`
}

// Expiry is the instant the label record becomes stale.
func (l *Label) Expiry() time.Time { return l.Computed.Add(l.Validity) }

// FreshAt reports whether the record is still valid at t.
func (l *Label) FreshAt(t time.Time) bool { return !t.After(l.Expiry()) }

// SameFields reports whether two records carry the same signed fields, in
// the same order: the same canonical form, so under one key the same
// signature. The signatures themselves are not compared.
func (l *Label) SameFields(o *Label) bool {
	return l.Name == o.Name && l.Value == o.Value && l.Annotator == o.Annotator &&
		l.Computed.UnixNano() == o.Computed.UnixNano() && l.Validity == o.Validity &&
		slices.Equal(l.Evidence, o.Evidence)
}

// appendCanonical appends the signed fields, serialized deterministically:
// the evidence in sorted order, whatever order the record lists it in. A
// record's Evidence array is shared by every node the record passes
// through, so more than one entry is sorted in a copy (*scratch, reused),
// never in place.
func (l *Label) appendCanonical(b []byte, scratch *[]string) []byte {
	b = append(b, l.Name...)
	b = append(b, '|')
	b = strconv.AppendBool(b, l.Value)
	b = append(b, '|')
	b = append(b, l.Annotator...)
	b = append(b, '|')
	b = strconv.AppendInt(b, l.Computed.UnixNano(), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(l.Validity), 10)
	ev := l.Evidence
	if len(ev) > 1 {
		*scratch = append((*scratch)[:0], ev...)
		slices.Sort(*scratch)
		ev = *scratch
	}
	for _, e := range ev {
		b = append(b, '|')
		b = append(b, e...)
	}
	return b
}

// MarshalJSON uses the paper's JSON label format.
func (l *Label) MarshalJSON() ([]byte, error) {
	type alias Label // avoid recursion
	return json.Marshal((*alias)(l))
}

var (
	// ErrUnknownAnnotator is returned when verifying a record whose
	// annotator has no registered key.
	ErrUnknownAnnotator = errors.New("trust: unknown annotator")
	// ErrBadSignature is returned when a record's signature does not
	// verify.
	ErrBadSignature = errors.New("trust: bad signature")
)

// Authority issues per-annotator signing keys and verifies records. It is
// safe for concurrent use.
type Authority struct {
	mu   sync.RWMutex
	keys map[string]*macKey
	// replaced counts Register calls that replaced an annotator's key.
	replaced atomic.Uint64
}

// NewAuthority returns an empty Authority.
func NewAuthority() *Authority {
	return &Authority{keys: make(map[string]*macKey)}
}

// Register derives and stores a signing key for the annotator, returning a
// Signer bound to it. Re-registering replaces the key, counts a
// replacement, and leaves the Signers bound to the old key no longer
// Current.
func (a *Authority) Register(annotator string, secret []byte) Signer {
	key := newMACKey(deriveKey(annotator, secret))
	a.mu.Lock()
	if old, ok := a.keys[annotator]; ok {
		old.replaced.Store(true)
		a.replaced.Add(1)
	}
	a.keys[annotator] = key
	a.mu.Unlock()
	return Signer{annotator: annotator, key: key}
}

// Replacements counts the keys Register has replaced. A record verified
// while the count read c may fail under the current key once it reads more
// than c, so whoever keeps verified records without re-verifying them
// (a node's label cache) drops them when the count moves.
func (a *Authority) Replacements() uint64 { return a.replaced.Load() }

// MACs counts the keyed MACs computed under the authority's current keys,
// signatures and verifications together. Tests and profiles read it; no
// decision does.
func (a *Authority) MACs() int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var n int64
	for _, k := range a.keys {
		k.mu.Lock()
		n += k.macs
		k.mu.Unlock()
	}
	return n
}

func deriveKey(annotator string, secret []byte) []byte {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte("athena-key/" + annotator))
	return mac.Sum(nil)
}

// Verify checks a record's signature against the registered key.
func (a *Authority) Verify(l *Label) error {
	a.mu.RLock()
	key, ok := a.keys[l.Annotator]
	a.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAnnotator, l.Annotator)
	}
	var want, got [sigLen]byte
	key.sign(l, &want)
	// Copied into a fixed array so the comparison converts no string.
	if len(l.Signature) != sigLen || !hmac.Equal(want[:], append(got[:0], l.Signature...)) {
		return fmt.Errorf("%w: label %q by %q", ErrBadSignature, l.Name, l.Annotator)
	}
	return nil
}

// Signer signs label records on behalf of one annotator.
type Signer struct {
	annotator string
	key       *macKey
}

// Annotator returns the identity the signer signs as.
func (s Signer) Annotator() string { return s.annotator }

// Current reports whether the signer's key is still its annotator's
// registered one: whether what it signs now verifies. The zero Signer's
// never is.
func (s Signer) Current() bool { return s.key != nil && !s.key.replaced.Load() }

// Sign fills in the record's Annotator and Signature fields.
func (s Signer) Sign(l *Label) {
	l.Annotator = s.annotator
	key := s.key
	if key == nil {
		key = unkeyed // the zero Signer signs under the empty key
	}
	var sig [sigLen]byte
	key.sign(l, &sig)
	l.Signature = string(sig[:])
}

// sigLen is the length of a signature: an HMAC-SHA256 in hex.
const sigLen = 2 * sha256.Size

// macKey is one signing key in the form signatures are made with: keying
// an HMAC hashes the key twice, so one keyed state is kept for the key's
// whole life and Reset per signature. The state is held under mu, and
// made at the key's first MAC: a fleet registers an annotator per node
// whether or not it ever signs. Simulator nodes sign and verify on one
// goroutine, so the lock is never contended there; the nodes of an
// in-process socket fleet run at once, and meet on it only when two verify
// records of the same annotator, or one signs while another verifies, for
// the ~0.3 µs one MAC over a record takes.
type macKey struct {
	key  []byte
	mu   sync.Mutex
	st   macState
	macs int64 // keyed MACs computed, read by Authority.MACs
	// replaced is set when Register replaces the key (Signer.Current).
	replaced atomic.Bool
}

// macState is what one signature needs and the next one reuses. The
// buffers live here, not on the caller's stack, because everything handed
// to a hash.Hash method escapes.
type macState struct {
	mac       hash.Hash // HMAC-SHA256, keyed
	canonical []byte
	evidence  []string
	sum       [sha256.Size]byte
}

// unkeyed is the key the zero Signer signs under.
var unkeyed = newMACKey(nil)

func newMACKey(key []byte) *macKey { return &macKey{key: key} }

// sign writes the record's signature under the key into sig.
func (k *macKey) sign(l *Label, sig *[sigLen]byte) {
	k.mu.Lock()
	st := &k.st
	if st.mac == nil {
		st.mac = hmac.New(sha256.New, k.key)
	}
	st.canonical = l.appendCanonical(st.canonical[:0], &st.evidence)
	st.mac.Reset()
	st.mac.Write(st.canonical)
	hex.Encode(sig[:], st.mac.Sum(st.sum[:0]))
	k.macs++
	k.mu.Unlock()
}

// Policy decides which annotators a consumer trusts for which labels. The
// zero value trusts nobody; use TrustAll or Allow to open it up. Policies
// make trust pairwise between annotator and query source (Section III-B).
type Policy struct {
	trustAll bool
	allowed  map[string]bool
}

// TrustAll returns a policy accepting every verified annotator.
func TrustAll() *Policy { return &Policy{trustAll: true} }

// TrustNone returns a policy accepting no annotators (forces raw-object
// retrieval, like Alice refusing Bob's judgment in Section VI-D).
func TrustNone() *Policy { return &Policy{} }

// TrustOnly returns a policy accepting exactly the given annotators.
func TrustOnly(annotators ...string) *Policy {
	p := &Policy{allowed: make(map[string]bool, len(annotators))}
	for _, a := range annotators {
		p.allowed[a] = true
	}
	return p
}

// Allow adds an annotator to the policy's allow list.
func (p *Policy) Allow(annotator string) {
	if p.allowed == nil {
		p.allowed = make(map[string]bool)
	}
	p.allowed[annotator] = true
}

// Trusts reports whether the policy accepts the annotator.
func (p *Policy) Trusts(annotator string) bool {
	if p == nil {
		return false
	}
	return p.trustAll || p.allowed[annotator]
}

// AcceptVerified is the policy's half of accepting a record the caller has
// authenticated (Authority.Verify, once per node): its annotator must be
// trusted and the record fresh at instant now.
func (p *Policy) AcceptVerified(l *Label, now time.Time) error {
	if !p.Trusts(l.Annotator) {
		return fmt.Errorf("trust: annotator %q not trusted for label %q", l.Annotator, l.Name)
	}
	if !l.FreshAt(now) {
		return fmt.Errorf("trust: label %q stale (expired %v)", l.Name, l.Expiry())
	}
	return nil
}
