// Package trust implements the paper's label records and trust machinery
// (Section III-B): label values computed by annotators are signed, note
// which evidence objects were used, and are accepted by a query source only
// if its trust policy accepts the annotator. Signing uses HMAC-SHA256 with
// per-annotator keys issued by a shared Authority (a stand-in for a PKI).
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
}

// NewAuthority returns an empty Authority.
func NewAuthority() *Authority {
	return &Authority{keys: make(map[string]*macKey)}
}

// Register derives and stores a signing key for the annotator, returning a
// Signer bound to it. Re-registering replaces the key.
func (a *Authority) Register(annotator string, secret []byte) Signer {
	key := newMACKey(deriveKey(annotator, secret))
	a.mu.Lock()
	a.keys[annotator] = key
	a.mu.Unlock()
	return Signer{annotator: annotator, key: key}
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

// Sign fills in the record's Annotator and Signature fields.
func (s Signer) Sign(l *Label) {
	l.Annotator = s.annotator
	key := s.key
	if key == nil {
		key = newMACKey(nil) // the zero Signer signs under the empty key
	}
	var sig [sigLen]byte
	key.sign(l, &sig)
	l.Signature = string(sig[:])
}

// sigLen is the length of a signature: an HMAC-SHA256 in hex.
const sigLen = 2 * sha256.Size

// macKey is one signing key in the form signatures are made with: keying
// an HMAC hashes the key twice, so a keyed one is kept and Reset per
// signature instead of built per signature. Hashing holds no lock; callers
// signing at once (the nodes of an in-process socket fleet verify under
// one Authority) each take a state of their own from the pool.
type macKey struct{ states sync.Pool }

// macState is what one signature needs and the next one reuses. The
// buffers live here, not on the caller's stack, because everything handed
// to a hash.Hash method escapes.
type macState struct {
	mac       hash.Hash // HMAC-SHA256, keyed
	canonical []byte
	evidence  []string
	sum       [sha256.Size]byte
}

func newMACKey(key []byte) *macKey {
	k := new(macKey)
	k.states.New = func() any { return &macState{mac: hmac.New(sha256.New, key)} }
	return k
}

// sign writes the record's signature under the key into sig.
func (k *macKey) sign(l *Label, sig *[sigLen]byte) {
	st := k.states.Get().(*macState)
	st.canonical = l.appendCanonical(st.canonical[:0], &st.evidence)
	st.mac.Reset()
	st.mac.Write(st.canonical)
	hex.Encode(sig[:], st.mac.Sum(st.sum[:0]))
	k.states.Put(st)
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

// Accept verifies a record against the authority and the policy: the
// record must be authentic, trusted, and fresh at instant now.
func (p *Policy) Accept(a *Authority, l *Label, now time.Time) error {
	if err := a.Verify(l); err != nil {
		return err
	}
	return p.AcceptVerified(l, now)
}

// AcceptVerified is the policy's half of Accept, for a record the caller
// has itself just verified: its annotator must be trusted and the record
// fresh at instant now.
func (p *Policy) AcceptVerified(l *Label, now time.Time) error {
	if !p.Trusts(l.Annotator) {
		return fmt.Errorf("trust: annotator %q not trusted for label %q", l.Annotator, l.Name)
	}
	if !l.FreshAt(now) {
		return fmt.Errorf("trust: label %q stale (expired %v)", l.Name, l.Expiry())
	}
	return nil
}
