package athena_test

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// itemRef matches a ROADMAP item reference ("item 9", "items 3 and 4"
// counts its first number). A reference to a DESIGN section's own list
// ("§5 item 10", "§5, items 2, 11") carries the section sign and is
// skipped.
var itemRef = regexp.MustCompile(`(§[0-9.]+,? )?\b[Ii]tems? ([0-9]+)`)

// roadmapItems returns the item numbers ROADMAP.md knows: each numbered
// entry under "## Open items", and each number its "Closed items:"
// sentence lists as "N (PR M)".
func roadmapItems(t *testing.T) map[int]bool {
	t.Helper()
	raw, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	open := strings.Index(text, "\n## Open items")
	if open < 0 {
		t.Fatal(`ROADMAP.md has no "## Open items" section`)
	}
	section := text[open+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	known := make(map[int]bool)
	for _, m := range regexp.MustCompile(`(?m)^([0-9]+)\. \*\*`).FindAllStringSubmatch(section, -1) {
		n, _ := strconv.Atoi(m[1])
		known[n] = true
	}
	closed := strings.Index(section, "Closed items:")
	if closed < 0 {
		t.Fatal(`ROADMAP.md's open items have no "Closed items:" sentence`)
	}
	sentence := section[closed:]
	sentence = sentence[:strings.Index(sentence, ").")+1]
	for _, m := range regexp.MustCompile(`([0-9]+) \(PR [0-9]+\)`).FindAllStringSubmatch(sentence, -1) {
		n, _ := strconv.Atoi(m[1])
		known[n] = true
	}
	return known
}

// TestDocItemReferencesResolve: every "item N" that DESIGN, EXPERIMENTS,
// ci.sh, parity.sh or bench/README.md cites is an item ROADMAP.md lists,
// open or closed. Item numbers are stable, so a number that resolves to
// nothing is a typo or a citation of an item that was dropped.
func TestDocItemReferencesResolve(t *testing.T) {
	known := roadmapItems(t)
	if len(known) < 10 {
		t.Fatalf("ROADMAP.md parsed to %d items, want the whole list", len(known))
	}
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "ci.sh", "parity.sh", "bench/README.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		var bad []string
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range itemRef.FindAllStringSubmatch(line, -1) {
				if m[1] != "" {
					continue
				}
				if n, _ := strconv.Atoi(m[2]); !known[n] {
					bad = append(bad, doc+":"+strconv.Itoa(i+1)+": "+m[0])
				}
			}
		}
		if len(bad) > 0 {
			slices.Sort(bad)
			t.Errorf("item references that ROADMAP.md lists neither open nor closed:\n%s", strings.Join(bad, "\n"))
		}
	}
}
