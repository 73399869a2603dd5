package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"athena"
	iathena "athena/internal/athena"
	"athena/internal/metrics"
	"athena/internal/object"
	"athena/internal/transport"
	"athena/internal/trust"
	"athena/internal/wire"
)

func TestParseSource(t *testing.T) {
	d, err := parseSource("self", "/cam/a=200000,60s,viableA+viableB")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name.String() != "/cam/a" || d.Size != 200000 || d.Validity != time.Minute {
		t.Errorf("descriptor = %+v", d)
	}
	if len(d.Labels) != 2 || d.Labels[0] != "viableA" {
		t.Errorf("labels = %v", d.Labels)
	}
	if d.Source != "self" {
		t.Errorf("source = %q", d.Source)
	}
}

func TestParseSourceRemote(t *testing.T) {
	d, err := parseSource("self", "/cam/b=1000,5s,x@othernode")
	if err != nil {
		t.Fatal(err)
	}
	if d.Source != "othernode" {
		t.Errorf("source = %q, want othernode", d.Source)
	}
}

func TestParseSourceErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"noequals",
		"/cam/a=1000,60s",              // missing labels
		"/cam/a=abc,60s,x",             // bad size
		"/cam/a=1000,sixty,x",          // bad validity
		"relative/name=1000,60s,x",     // bad name
		"/cam/a=1000,60s,x,extra,more", // too many fields
	} {
		if _, err := parseSource("self", bad); err == nil {
			t.Errorf("parseSource(%q) accepted", bad)
		}
	}
}

func TestMetaFromDescriptors(t *testing.T) {
	descs := []object.Descriptor{
		{Size: 500, Labels: []string{"x", "y"}, ProbTrue: 0.7, Validity: time.Minute},
		{Size: 100, Labels: []string{"y"}, ProbTrue: 0.6, Validity: time.Second},
	}
	meta := iathena.PriceLabels(nil, descs)
	if meta["x"].Cost != 500 {
		t.Errorf("x cost = %v", meta["x"].Cost)
	}
	// Cheapest covering descriptor wins for shared labels.
	if meta["y"].Cost != 100 || meta["y"].Validity != time.Second {
		t.Errorf("y meta = %+v", meta["y"])
	}
}

func TestStaticWorld(t *testing.T) {
	w := staticWorld{"up": true}
	if !w.LabelValue("up", time.Now()) || w.LabelValue("down", time.Now()) {
		t.Error("staticWorld lookup")
	}
}

func TestRepeatableFlag(t *testing.T) {
	var r repeatable
	if err := r.Set("a=1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("b=2"); err != nil {
		t.Fatal(err)
	}
	if r.String() != "a=1,b=2" || len(r) != 2 {
		t.Errorf("repeatable = %v", r)
	}
}

func TestDemoEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP demo in -short mode")
	}
	if err := runDemo(); err != nil {
		t.Fatalf("demo: %v", err)
	}
}

// TestStatusEndpointSmoke wires a daemon-shaped node (real TCP transport,
// instrumented registry) and hits the status endpoint the way -status
// serves it.
func TestStatusEndpointSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP transport in -short mode")
	}
	tr, err := transport.NewTCP("solo", "127.0.0.1:0", wire.Codec{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	reg := metrics.NewRegistry()
	tr.Instrument(transport.TCPMetrics{
		Sends:      reg.Counter("transport.sends"),
		SentBytes:  reg.Counter("transport.sent_bytes"),
		Redials:    reg.Counter("transport.redials"),
		SendErrors: reg.Counter("transport.send_errors"),
	})

	desc, err := parseSource("solo", "/cam/solo=1000,60s,up")
	if err != nil {
		t.Fatal(err)
	}
	auth := trust.NewAuthority()
	node, err := iathena.New(iathena.Config{
		ID:         "solo",
		Transport:  tr,
		Router:     &iathena.StaticRouter{Self: "solo"},
		Timers:     iathena.WallTimers{},
		Scheme:     athena.SchemeLVF,
		Directory:  iathena.NewDirectory([]object.Descriptor{desc}),
		Meta:       iathena.PriceLabels(nil, []object.Descriptor{desc}),
		World:      staticWorld{"up": true},
		Authority:  auth,
		Signer:     auth.Register("solo", []byte("solo")),
		Policy:     trust.TrustAll(),
		Descriptor: &desc,
		CacheBytes: 1 << 20,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(node.StatusMux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz status = %d", resp.StatusCode)
	}
	var s iathena.StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Node != "solo" {
		t.Errorf("node = %q", s.Node)
	}
	if s.DirectoryVersion == 0 {
		t.Error("directory version missing")
	}
	if _, ok := s.Peers["solo"]; !ok {
		t.Errorf("self missing from peers: %v", s.Peers)
	}
}
