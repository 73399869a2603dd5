package infomax

import (
	"fmt"
	"math/rand"
	"testing"

	"athena/internal/names"
)

func item(name string, size int64, utility float64) Item {
	return Item{Name: names.MustParse(name), Size: size, BaseUtility: utility}
}

func TestMarginalUtilityDiscountsBySimilarity(t *testing.T) {
	bridge1 := item("/city/bridge/north/cam1", 100, 10)
	// Nothing delivered: full utility.
	if got := MarginalUtility(bridge1, nil); got != 10 {
		t.Errorf("marginal = %v, want 10", got)
	}
	// Same name delivered: zero marginal (the 10-pictures-of-one-bridge
	// example).
	same := []names.Name{names.MustParse("/city/bridge/north/cam1")}
	if got := MarginalUtility(bridge1, same); got != 0 {
		t.Errorf("marginal of duplicate = %v, want 0", got)
	}
	// Sibling camera: 3/4 shared prefix -> quarter utility.
	sibling := []names.Name{names.MustParse("/city/bridge/north/cam2")}
	if got := MarginalUtility(bridge1, sibling); got != 2.5 {
		t.Errorf("marginal vs sibling = %v, want 2.5", got)
	}
	// Unrelated name: full utility.
	far := []names.Name{names.MustParse("/rural/farm/sensor")}
	if got := MarginalUtility(bridge1, far); got != 10 {
		t.Errorf("marginal vs unrelated = %v, want 10", got)
	}
}

func TestSetUtilitySubAdditive(t *testing.T) {
	one := []Item{item("/city/bridge/cam1", 100, 10)}
	ten := make([]Item, 10)
	for i := range ten {
		ten[i] = item("/city/bridge/cam1", 100, 10)
	}
	if u1, u10 := SetUtility(one), SetUtility(ten); u10 != u1 {
		t.Errorf("10 copies utility %v != single %v", u10, u1)
	}
	distinct := []Item{
		item("/a/x", 100, 10),
		item("/b/y", 100, 10),
	}
	if got := SetUtility(distinct); got != 20 {
		t.Errorf("distinct utility = %v, want additive 20", got)
	}
}

func TestGreedyPrefersDissimilarContent(t *testing.T) {
	items := []Item{
		item("/city/market/cam1", 100, 10),
		item("/city/market/cam2", 100, 10), // similar to cam1
		item("/city/harbor/cam1", 100, 10), // dissimilar
	}
	order := Greedy(items, 200) // room for two
	if len(order) != 2 {
		t.Fatalf("selected %d items", len(order))
	}
	picked := map[int]bool{order[0]: true, order[1]: true}
	if !picked[2] {
		t.Errorf("greedy skipped the dissimilar item: %v", order)
	}
	if picked[0] && picked[1] {
		t.Errorf("greedy picked both similar items: %v", order)
	}
}

func TestGreedyBudget(t *testing.T) {
	items := []Item{
		item("/a/big", 1000, 10),
		item("/b/small", 100, 5),
	}
	order := Greedy(items, 500)
	if len(order) != 1 || order[0] != 1 {
		t.Errorf("order = %v, want only the affordable item", order)
	}
	// Unlimited budget takes everything useful.
	if order := Greedy(items, 0); len(order) != 2 {
		t.Errorf("unlimited order = %v", order)
	}
}

func TestGreedySkipsZeroMarginal(t *testing.T) {
	items := []Item{
		item("/a/x", 100, 10),
		item("/a/x", 100, 10), // duplicate name: zero marginal once first sent
	}
	order := Greedy(items, 0)
	if len(order) != 1 {
		t.Errorf("order = %v, duplicate should be skipped", order)
	}
}

// Property: greedy with a budget never exceeds it, and its delivered
// utility is at least that of a random feasible selection (sanity, not the
// full submodular bound).
func TestGreedyBudgetAndQualityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	prefixes := []string{"/a/b", "/a/c", "/d/e", "/f/g"}
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(10)
		items := make([]Item, n)
		for i := range items {
			items[i] = item(
				fmt.Sprintf("%s/o%d", prefixes[rng.Intn(len(prefixes))], rng.Intn(4)),
				int64(50+rng.Intn(500)),
				1+rng.Float64()*9,
			)
		}
		budget := int64(200 + rng.Intn(1000))
		order := Greedy(items, budget)
		var used int64
		sel := make([]Item, 0, len(order))
		for _, i := range order {
			used += items[i].Size
			sel = append(sel, items[i])
		}
		if used > budget {
			t.Fatalf("budget exceeded: %d > %d", used, budget)
		}
		greedyU := SetUtility(sel)

		// Random feasible selection for comparison.
		perm := rng.Perm(n)
		var randSel []Item
		var randUsed int64
		for _, i := range perm {
			if randUsed+items[i].Size <= budget {
				randSel = append(randSel, items[i])
				randUsed += items[i].Size
			}
		}
		// Greedy doesn't always dominate an arbitrary selection (knapsack
		// effects), but it must achieve at least half of this heuristic's
		// utility in practice for these instances.
		if randU := SetUtility(randSel); greedyU < 0.5*randU {
			t.Fatalf("greedy utility %v << random %v", greedyU, randU)
		}
	}
}

// Property: marginal utility never increases as the delivered set grows
// (submodularity over the prefix-similarity proxy).
func TestSubmodularityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		it := item(fmt.Sprintf("/p/%d/x", rng.Intn(5)), 100, 1+rng.Float64()*9)
		var delivered []names.Name
		prev := MarginalUtility(it, delivered)
		for k := 0; k < 8; k++ {
			delivered = append(delivered, names.MustParse(fmt.Sprintf("/p/%d/o%d", rng.Intn(5), rng.Intn(5))))
			cur := MarginalUtility(it, delivered)
			if cur > prev+1e-12 {
				t.Fatalf("marginal increased: %v -> %v", prev, cur)
			}
			prev = cur
		}
	}
}

func BenchmarkGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(55))
	items := make([]Item, 200)
	for i := range items {
		items[i] = item(fmt.Sprintf("/z/%d/o%d", rng.Intn(20), i), int64(100+rng.Intn(900)), rng.Float64()*10)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Greedy(items, 20_000)
	}
}
