package trust

import (
	"encoding/json"
	"errors"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func signedLabel(t *testing.T, auth *Authority) (*Label, Signer) {
	t.Helper()
	signer := auth.Register("vision-1", []byte("secret"))
	l := &Label{
		Name:     "viableA",
		Value:    true,
		Evidence: []string{"/grid/a/cam#1", "/grid/a/cam#2"},
		Computed: t0,
		Validity: 30 * time.Second,
	}
	signer.Sign(l)
	return l, signer
}

func TestSignAndVerify(t *testing.T) {
	auth := NewAuthority()
	l, _ := signedLabel(t, auth)
	if err := auth.Verify(l); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	auth := NewAuthority()
	for _, mutate := range []func(*Label){
		func(l *Label) { l.Value = false },
		func(l *Label) { l.Name = "viableB" },
		func(l *Label) { l.Evidence = append(l.Evidence, "/bogus#1") },
		func(l *Label) { l.Evidence = l.Evidence[:1] },
		func(l *Label) { l.Evidence[1] = "/grid/a/cam#3" },
		func(l *Label) { l.Annotator = "vision-2" }, // registered, other key
		func(l *Label) { l.Computed = l.Computed.Add(time.Second) },
		func(l *Label) { l.Validity += time.Second },
		func(l *Label) { l.Signature = "deadbeef" },
	} {
		l, _ := signedLabel(t, auth)
		auth.Register("vision-2", []byte("secret"))
		mutate(l)
		if err := auth.Verify(l); !errors.Is(err, ErrBadSignature) {
			t.Errorf("tampered record verified: %v", err)
		}
	}
}

func TestVerifyEvidenceOrderInsensitive(t *testing.T) {
	auth := NewAuthority()
	l, _ := signedLabel(t, auth)
	l.Evidence[0], l.Evidence[1] = l.Evidence[1], l.Evidence[0]
	if err := auth.Verify(l); err != nil {
		t.Errorf("evidence reorder broke signature: %v", err)
	}
}

func TestVerifyUnknownAnnotator(t *testing.T) {
	auth := NewAuthority()
	l, _ := signedLabel(t, auth)
	other := NewAuthority()
	if err := other.Verify(l); !errors.Is(err, ErrUnknownAnnotator) {
		t.Errorf("err = %v, want ErrUnknownAnnotator", err)
	}
}

func TestLabelFreshAt(t *testing.T) {
	auth := NewAuthority()
	l, _ := signedLabel(t, auth)
	if !l.FreshAt(t0.Add(10*time.Second)) || !l.FreshAt(t0.Add(30*time.Second)) {
		t.Error("label stale within its validity")
	}
	if l.FreshAt(t0.Add(time.Minute)) {
		t.Error("label fresh past its validity")
	}
}

// accept is how a consumer takes a record it has not authenticated yet:
// verified, then trusted and fresh.
func accept(p *Policy, a *Authority, l *Label, now time.Time) error {
	if err := a.Verify(l); err != nil {
		return err
	}
	return p.AcceptVerified(l, now)
}

func TestPolicies(t *testing.T) {
	auth := NewAuthority()
	l, signer := signedLabel(t, auth)

	if err := accept(TrustAll(), auth, l, t0.Add(time.Second)); err != nil {
		t.Errorf("TrustAll rejected: %v", err)
	}
	if err := accept(TrustNone(), auth, l, t0.Add(time.Second)); err == nil {
		t.Error("TrustNone accepted")
	}
	if err := accept(TrustOnly(signer.Annotator()), auth, l, t0.Add(time.Second)); err != nil {
		t.Errorf("TrustOnly rejected listed annotator: %v", err)
	}
	if err := accept(TrustOnly("someone-else"), auth, l, t0.Add(time.Second)); err == nil {
		t.Error("TrustOnly accepted unlisted annotator")
	}
	p := TrustNone()
	p.Allow(signer.Annotator())
	if err := accept(p, auth, l, t0.Add(time.Second)); err != nil {
		t.Errorf("Allow did not take effect: %v", err)
	}
	// Stale record rejected even when trusted.
	if err := accept(TrustAll(), auth, l, t0.Add(time.Hour)); err == nil {
		t.Error("stale record accepted")
	}
	var nilPolicy *Policy
	if nilPolicy.Trusts("x") {
		t.Error("nil policy trusts")
	}
}

func TestLabelJSONFormat(t *testing.T) {
	auth := NewAuthority()
	l, _ := signedLabel(t, auth)
	raw, err := json.Marshal(l)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var decoded Label
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if err := auth.Verify(&decoded); err != nil {
		t.Errorf("round-tripped record failed verification: %v", err)
	}
}

func TestReRegisterReplacesKey(t *testing.T) {
	auth := NewAuthority()
	l, _ := signedLabel(t, auth)
	auth.Register("vision-1", []byte("rotated"))
	if err := auth.Verify(l); !errors.Is(err, ErrBadSignature) {
		t.Errorf("old signature verified after key rotation: %v", err)
	}
}

// Only a Register that replaces an annotator's key counts: a holder of
// verified records drops them on that count, and a fleet that registers
// each annotator once never does.
func TestReplacementsCountsReplacedKeys(t *testing.T) {
	auth := NewAuthority()
	auth.Register("vision-1", []byte("secret"))
	auth.Register("vision-2", []byte("secret"))
	if n := auth.Replacements(); n != 0 {
		t.Fatalf("two first registrations: %d replacements", n)
	}
	auth.Register("vision-1", []byte("rotated"))
	if n := auth.Replacements(); n != 1 {
		t.Errorf("one re-registration: %d replacements, want 1", n)
	}
}

// A Signer is Current until its annotator's key is replaced; the zero
// Signer never is.
func TestSignerCurrentUntilReplaced(t *testing.T) {
	auth := NewAuthority()
	old := auth.Register("vision-1", []byte("secret"))
	other := auth.Register("vision-2", []byte("secret"))
	if !old.Current() || !other.Current() {
		t.Fatal("a freshly registered signer is not current")
	}
	rotated := auth.Register("vision-1", []byte("rotated"))
	if old.Current() || !rotated.Current() || !other.Current() {
		t.Errorf("after vision-1's re-registration: old %v, new %v, vision-2 %v; want false, true, true",
			old.Current(), rotated.Current(), other.Current())
	}
	if (Signer{}).Current() {
		t.Error("the zero Signer is current")
	}
}

// SameFields compares every signed field and nothing else: a record that
// differs in any one of them has a different canonical form.
func TestSameFields(t *testing.T) {
	auth := NewAuthority()
	base, _ := signedLabel(t, auth)
	other := *base
	other.Signature = "x"
	if !base.SameFields(&other) {
		t.Error("a different signature made the fields differ")
	}
	for i, mutate := range []func(*Label){
		func(l *Label) { l.Name = "viableB" },
		func(l *Label) { l.Value = false },
		func(l *Label) { l.Annotator = "vision-2" },
		func(l *Label) { l.Computed = l.Computed.Add(time.Nanosecond) },
		func(l *Label) { l.Validity++ },
		func(l *Label) { l.Evidence = []string{"/bogus#1", l.Evidence[1]} },
		func(l *Label) { l.Evidence = []string{l.Evidence[0], "/bogus#1"} },
		func(l *Label) { l.Evidence = l.Evidence[:1] },
	} {
		l := *base
		mutate(&l)
		if base.SameFields(&l) {
			t.Errorf("mutation %d: fields still the same", i)
		}
	}
}

// MACs counts one keyed MAC per signature and per verification.
func TestMACsCounts(t *testing.T) {
	auth := NewAuthority()
	l, signer := signedLabel(t, auth)
	if n := auth.MACs(); n != 1 {
		t.Fatalf("one signature: %d MACs", n)
	}
	_ = auth.Verify(l)
	signer.Sign(l)
	if n := auth.MACs(); n != 3 {
		t.Errorf("two signatures and a verification: %d MACs, want 3", n)
	}
}
