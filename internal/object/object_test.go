package object

import (
	"fmt"
	"testing"
	"time"

	"athena/internal/names"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func sample() *Object {
	return &Object{
		ID:       ID{Name: names.MustParse("/grid/seg/3/4/cam"), Version: 2},
		Size:     500_000,
		Created:  t0,
		Validity: 10 * time.Second,
		Labels:   []string{"viable:3-4", "viable:3-5"},
		Source:   "node7",
	}
}

func TestFreshness(t *testing.T) {
	o := sample()
	if !o.FreshAt(t0) {
		t.Error("not fresh at creation")
	}
	if !o.FreshAt(t0.Add(10 * time.Second)) {
		t.Error("not fresh exactly at expiry")
	}
	if o.FreshAt(t0.Add(10*time.Second + time.Nanosecond)) {
		t.Error("fresh after expiry")
	}
	if got := o.RemainingValidity(t0.Add(4 * time.Second)); got != 6*time.Second {
		t.Errorf("RemainingValidity = %v, want 6s", got)
	}
	if got := o.RemainingValidity(t0.Add(time.Minute)); got != 0 {
		t.Errorf("RemainingValidity past expiry = %v, want 0", got)
	}
}

func TestCoversLabel(t *testing.T) {
	o := sample()
	if !o.CoversLabel("viable:3-4") {
		t.Error("CoversLabel missed listed label")
	}
	if o.CoversLabel("viable:9-9") {
		t.Error("CoversLabel matched unlisted label")
	}
}

func TestIDString(t *testing.T) {
	o := sample()
	if got := o.ID.String(); got != "/grid/seg/3/4/cam#2" {
		t.Errorf("ID.String = %q", got)
	}
}

// TestIDStringMatchesSprintf runs ID.String against the fmt.Sprintf it
// replaced, over zero, small, large and maximal versions and the zero
// name, and pins it at one allocation.
func TestIDStringMatchesSprintf(t *testing.T) {
	for _, name := range []names.Name{{}, names.MustParse("/a"), names.MustParse("/grid/seg/3/4/cam")} {
		for _, v := range []uint64{0, 1, 9, 10, 99, 12345, 1 << 32, ^uint64(0)} {
			id := ID{Name: name, Version: v}
			if got, want := id.String(), fmt.Sprintf("%s#%d", id.Name, id.Version); got != want {
				t.Errorf("ID{%q, %d}.String() = %q, want %q", name, v, got, want)
			}
		}
	}
	id := sample().ID
	if n := testing.AllocsPerRun(100, func() { _ = id.String() }); n != 1 {
		t.Errorf("ID.String: %v allocs/op, want 1", n)
	}
}
