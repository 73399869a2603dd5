package trust

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"athena/internal/boolexpr"
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

func TestFreshnessAndBoolValue(t *testing.T) {
	auth := NewAuthority()
	l, _ := signedLabel(t, auth)
	if got := l.BoolValue(t0.Add(10 * time.Second)); got != boolexpr.True {
		t.Errorf("BoolValue fresh = %v, want true", got)
	}
	if got := l.BoolValue(t0.Add(time.Minute)); got != boolexpr.Unknown {
		t.Errorf("BoolValue stale = %v, want unknown", got)
	}
}

func TestPolicies(t *testing.T) {
	auth := NewAuthority()
	l, signer := signedLabel(t, auth)

	if err := TrustAll().Accept(auth, l, t0.Add(time.Second)); err != nil {
		t.Errorf("TrustAll rejected: %v", err)
	}
	if err := TrustNone().Accept(auth, l, t0.Add(time.Second)); err == nil {
		t.Error("TrustNone accepted")
	}
	if err := TrustOnly(signer.Annotator()).Accept(auth, l, t0.Add(time.Second)); err != nil {
		t.Errorf("TrustOnly rejected listed annotator: %v", err)
	}
	if err := TrustOnly("someone-else").Accept(auth, l, t0.Add(time.Second)); err == nil {
		t.Error("TrustOnly accepted unlisted annotator")
	}
	p := TrustNone()
	p.Allow(signer.Annotator())
	if err := p.Accept(auth, l, t0.Add(time.Second)); err != nil {
		t.Errorf("Allow did not take effect: %v", err)
	}
	// Stale record rejected even when trusted.
	if err := TrustAll().Accept(auth, l, t0.Add(time.Hour)); err == nil {
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
