package annotate

import (
	"errors"
	"testing"
	"time"

	"athena/internal/names"
	"athena/internal/object"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// world is a test GroundTruth: label "flips" toggles each second,
// everything else is constant true.
type world struct{}

func (world) LabelValue(label string, t time.Time) bool {
	if label == "flips" {
		return t.Unix()%2 == 0
	}
	return label != "alwaysFalse"
}

func evidence(labels ...string) *object.Object {
	return &object.Object{
		ID:       object.ID{Name: names.MustParse("/test/cam"), Version: 1},
		Size:     1000,
		Created:  t0,
		Validity: 30 * time.Second,
		Labels:   labels,
		Source:   "src1",
	}
}

func TestMachineAnnotate(t *testing.T) {
	m := NewMachine(world{})
	obj := evidence("viableA", "alwaysFalse")

	v, err := m.Annotate("viableA", obj)
	if err != nil || !v {
		t.Errorf("Annotate = %v %v", v, err)
	}
	v, err = m.Annotate("alwaysFalse", obj)
	if err != nil || v {
		t.Errorf("Annotate alwaysFalse = %v %v", v, err)
	}
	if _, err := m.Annotate("other", obj); !errors.Is(err, ErrCannotAnnotate) {
		t.Errorf("err = %v, want ErrCannotAnnotate", err)
	}
}

func TestMachineReadsSampleTimeNotNow(t *testing.T) {
	m := NewMachine(world{})
	obj := evidence("flips")
	obj.Created = time.Unix(100, 0) // even second: true
	v, err := m.Annotate("flips", obj)
	if err != nil || !v {
		t.Errorf("Annotate = %v %v, want snapshot at sample time", v, err)
	}
}

func TestConfidenceMonotone(t *testing.T) {
	eps := 0.2
	prev := 0.0
	for n := 1; n <= 10; n += 2 { // odd unanimous votes
		c := Confidence(n, 0, eps)
		if c < prev {
			t.Errorf("confidence not monotone at n=%d: %v < %v", n, c, prev)
		}
		prev = c
	}
	if c := Confidence(3, 3, eps); c != 0.5 {
		t.Errorf("tied votes confidence = %v, want 0.5", c)
	}
	if c := Confidence(1, 0, 0); c != 1 {
		t.Errorf("noise-free confidence = %v, want 1", c)
	}
}

func TestCorroborator(t *testing.T) {
	c := &Corroborator{Target: 0.95, Eps: 0.2}
	if _, confident := c.Decided(); confident {
		t.Error("empty corroborator decided")
	}
	c.Add(true)
	if v, confident := c.Decided(); confident {
		t.Errorf("one vote at eps 0.2 reached 0.95: %v", v)
	}
	c.Add(true)
	c.Add(true)
	v, confident := c.Decided()
	if !confident || !v {
		vf, va := c.Votes()
		t.Errorf("Decided = %v %v after votes %d/%d", v, confident, vf, va)
	}
	// Conflicting votes reduce confidence.
	c2 := &Corroborator{Target: 0.95, Eps: 0.2}
	c2.Add(true)
	c2.Add(false)
	if _, confident := c2.Decided(); confident {
		t.Error("tied corroborator decided")
	}
}
