package athena

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"athena/internal/boolexpr"
	"athena/internal/names"
	"athena/internal/object"
	"athena/internal/trust"
)

func TestSchemeStringParse(t *testing.T) {
	for _, s := range Schemes() {
		parsed, err := ParseScheme(s.String())
		if err != nil || parsed != s {
			t.Errorf("round trip %v: %v %v", s, parsed, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("ParseScheme accepted bogus")
	}
}

func testDescriptors() []object.Descriptor {
	return []object.Descriptor{
		{
			Name: names.MustParse("/cam/a"), Size: 100, Source: "nodeA",
			Labels: []string{"l1", "l2"}, Validity: time.Minute, ProbTrue: 0.8,
		},
		{
			Name: names.MustParse("/cam/b"), Size: 50, Source: "nodeB",
			Labels: []string{"l2", "l3"}, Validity: time.Minute, ProbTrue: 0.8,
		},
		{
			Name: names.MustParse("/cam/c"), Size: 500, Source: "nodeC",
			Labels: []string{"l1", "l2", "l3", "l4"}, Validity: time.Minute, ProbTrue: 0.8,
		},
	}
}

func TestDirectoryLookups(t *testing.T) {
	v := NewDirectory(testDescriptors()).View()
	if got := v.cover("l2"); len(got) != 3 {
		t.Errorf("cover(l2) = %v", got)
	}
	if got := v.cover("zz"); len(got) != 0 {
		t.Errorf("cover(zz) = %v", got)
	}
	if r := v.source("nodeB"); r == nil || r.desc.Size != 50 {
		t.Errorf("source(nodeB) = %+v", r)
	}
}

func TestDirectorySelectSources(t *testing.T) {
	d := NewDirectory(testDescriptors())
	// l1+l2+l3: nodeA(100)+nodeB(50)=150 beats nodeC(500).
	sel := viewSelect(d, []string{"l1", "l2", "l3"})
	if len(sel) != 2 || sel[0] != "nodeA" || sel[1] != "nodeB" {
		t.Errorf("SelectSources = %v", sel)
	}
	// l4 only coverable by nodeC.
	sel = viewSelect(d, []string{"l4"})
	if len(sel) != 1 || sel[0] != "nodeC" {
		t.Errorf("SelectSources(l4) = %v", sel)
	}
	// Uncoverable labels are skipped, coverable ones still selected.
	sel = viewSelect(d, []string{"zz", "l3"})
	if len(sel) != 1 || sel[0] != "nodeB" {
		t.Errorf("SelectSources(zz,l3) = %v", sel)
	}
	if sel := viewSelect(d, []string{"zz"}); sel != nil {
		t.Errorf("SelectSources(zz) = %v", sel)
	}
}

func TestDirectorySourceForLabel(t *testing.T) {
	d := NewDirectory(testDescriptors())
	// Cheapest covering source wins.
	if got := d.SourceForLabel("l2", nil); got != "nodeB" {
		t.Errorf("SourceForLabel(l2) = %q, want nodeB (cheapest)", got)
	}
	// Preferred set restricts the choice.
	if got := d.SourceForLabel("l2", []string{"nodeC"}); got != "nodeC" {
		t.Errorf("SourceForLabel(l2, [nodeC]) = %q", got)
	}
	// Preferred set that does not cover falls back to all sources.
	if got := d.SourceForLabel("l4", []string{"nodeA"}); got != "nodeC" {
		t.Errorf("SourceForLabel(l4, [nodeA]) = %q", got)
	}
	if got := d.SourceForLabel("zz", nil); got != "" {
		t.Errorf("SourceForLabel(zz) = %q", got)
	}
}

func TestDirectorySourceForLabelExcluding(t *testing.T) {
	v := NewDirectory(testDescriptors()).View()
	// Excluding the cheapest source yields the alternate.
	got := viewPick(v, "l2", nil, map[string]bool{"nodeB": true})
	if got != "nodeA" {
		t.Errorf("SourceForLabelExcluding(l2, -nodeB) = %q, want nodeA", got)
	}
	// Excluding every covering source yields "" (caller falls back).
	got = viewPick(v, "l4", nil, map[string]bool{"nodeC": true})
	if got != "" {
		t.Errorf("SourceForLabelExcluding(l4, -nodeC) = %q, want empty", got)
	}
}

var tBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestInterestTable(t *testing.T) {
	it := NewInterestTable(10 * time.Second)
	if pending := it.Add("/cam/x", "origin1", "q1", "nb1", 0, tBase); pending {
		t.Error("first Add reported pending")
	}
	if pending := it.Add("/cam/x", "origin2", "q2", "nb2", 0, tBase); !pending {
		t.Error("second Add did not report pending")
	}
	// Duplicate waiter: still pending, not duplicated.
	if pending := it.Add("/cam/x", "origin1", "q1", "nb1", 0, tBase); !pending {
		t.Error("duplicate Add did not report pending")
	}
	if n := len(it.reqs["/cam/x"].waiters); n != 2 {
		t.Errorf("%d waiters, want 2", n)
	}
	ws := it.Waiters("/cam/x", tBase.Add(time.Second))
	if len(ws) != 2 {
		t.Fatalf("Waiters = %d", len(ws))
	}
	if ws[0].from != "nb1" || ws[1].from != "nb2" {
		t.Errorf("waiter froms = %v %v", ws[0].from, ws[1].from)
	}
	// Consumed: no longer pending.
	if it.pending("/cam/x", tBase.Add(time.Second)) {
		t.Error("consumed entry still pending")
	}
}

func TestInterestTableExpiry(t *testing.T) {
	it := NewInterestTable(5 * time.Second)
	it.Add("/cam/x", "o", "q", "nb", 0, tBase)
	if !it.pending("/cam/x", tBase.Add(4*time.Second)) {
		t.Error("entry lapsed early")
	}
	if it.pending("/cam/x", tBase.Add(6*time.Second)) {
		t.Error("entry survived TTL")
	}
	if ws := it.Waiters("/cam/x", tBase.Add(6*time.Second)); len(ws) != 0 {
		t.Errorf("stale waiters returned: %d", len(ws))
	}
}

func TestMessageWireSizes(t *testing.T) {
	r := ObjectRequest{}
	if r.WireSize() != requestBytes {
		t.Error("request size")
	}
	d := ObjectData{Size: 1000}
	if d.WireSize() != dataHeaderBytes+1000 {
		t.Error("data size")
	}
	ls := LabelShare{Records: make([]trust.Label, 3)}
	if ls.WireSize() != 3*labelRecordBytes {
		t.Error("label share size")
	}
}

func BenchmarkPlanFor(b *testing.B) {
	meta := make(boolexpr.MetaTable)
	labels := make([]string, 12)
	for i := range labels {
		labels[i] = fmt.Sprintf("l%02d", i)
		meta[labels[i]] = boolexpr.Meta{
			Cost:     float64(100 + i*37),
			ProbTrue: 0.5,
			Validity: time.Duration(1+i) * time.Second,
		}
	}
	exprText := strings.Join(labels[:6], " & ") + " | " + strings.Join(labels[6:], " & ")
	expr := boolexpr.ToDNF(boolexpr.MustParse(exprText))

	b.Run("uncached", func(b *testing.B) {
		n := &Node{choices: schemeChoices[SchemeLVF].choices, meta: meta}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.planFor(expr)
		}
	})
}

func TestPlanForLVFOrdersByValidity(t *testing.T) {
	meta := boolexpr.MetaTable{
		"short": {Cost: 1, ProbTrue: 0.5, Validity: time.Second},
		"long":  {Cost: 1, ProbTrue: 0.5, Validity: time.Hour},
		"mid":   {Cost: 1, ProbTrue: 0.5, Validity: time.Minute},
	}
	n := &Node{choices: schemeChoices[SchemeLVF].choices, meta: meta, dir: NewDirectory(nil)}
	expr := boolexpr.ToDNF(boolexpr.MustParse("short & long & mid"))
	plan := n.planFor(expr)
	order := plan.LiteralOrder[0]
	lits := expr.Terms[0].Literals
	if lits[order[0]].Label != "long" || lits[order[2]].Label != "short" {
		t.Errorf("LVF literal order = [%s %s %s]",
			lits[order[0]].Label, lits[order[1]].Label, lits[order[2]].Label)
	}
}
