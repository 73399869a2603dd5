package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// A nil recorder is the tracing-off path every node runs: each method is
// a no-op that allocates nothing.
func TestNilRecorderDoesNotAllocate(t *testing.T) {
	var r *Recorder
	at := epoch.Add(time.Second)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Event("n1", "n1/q1", Set, at, "viable:h:1-2")
		r.Span("n1", "n1/q1", Hold, epoch, at, "window")
		if r.On() {
			t.Fatal("a nil recorder is on")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil recorder: %v allocs a call, want 0", allocs)
	}
	if r.Spans() != nil || r.Query("n1/q1") != nil {
		t.Fatal("a nil recorder returned spans")
	}
}

// WriteChrome gives each node one track, in name order, and each span its
// query and detail; its output depends only on the spans.
func TestWriteChrome(t *testing.T) {
	record := func() *Recorder {
		r := New()
		r.Event("n2", "n1/q1", Answer, epoch.Add(3*time.Millisecond), "label")
		r.Span("n1", "n1/q1", Queue, epoch.Add(time.Millisecond), epoch.Add(2*time.Millisecond), "request to n2")
		r.Event("n1", "n1/q1", Plan, epoch, "")
		return r
	}
	var a, b bytes.Buffer
	if err := record().WriteChrome(&a, epoch); err != nil {
		t.Fatal(err)
	}
	if err := record().WriteChrome(&b, epoch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same spans differ")
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, a.String())
	}
	var got []string
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			got = append(got, "track "+e.Args["name"])
		case "X":
			got = append(got, e.Name+" "+e.Args["query"]+" "+e.Args["detail"])
		}
	}
	want := []string{
		"track n1", "plan n1/q1 ", "queue n1/q1 request to n2",
		"track n2", "answer n1/q1 label",
	}
	if len(got) != len(want) {
		t.Fatalf("events %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events %q, want %q", got, want)
		}
	}
	if q := doc.TraceEvents[2]; q.Ts != 1000 || q.Dur != 1000 {
		t.Fatalf("queue span at %vµs for %vµs, want 1000 and 1000", q.Ts, q.Dur)
	}
	if n := len(record().Query("n1/q1")); n != 3 {
		t.Fatalf("Query found %d spans, want 3", n)
	}
}
