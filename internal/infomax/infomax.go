// Package infomax implements the information-maximizing triage of
// Section V-B: the utility of delivered data is sub-additive, with
// redundancy between objects estimated from their hierarchical-name
// similarity (longer shared prefix = more redundant). Greedy
// marginal-utility-per-byte selection decides what to send across a
// bottleneck under a byte budget; A4 and examples/overload run it.
package infomax

import "athena/internal/names"

// Item is a candidate object for triage.
type Item struct {
	// Name is the object's hierarchical semantic name.
	Name names.Name
	// Size is the transmission/storage cost in bytes.
	Size int64
	// BaseUtility is the item's standalone information value.
	BaseUtility float64
}

// MarginalUtility is the extra information an item adds given an
// already-delivered set: its base utility discounted by its maximum name
// similarity to any delivered item. Identical names add nothing; disjoint
// names add full value.
func MarginalUtility(item Item, delivered []names.Name) float64 {
	maxSim := 0.0
	for _, d := range delivered {
		if s := item.Name.Similarity(d); s > maxSim {
			maxSim = s
		}
	}
	return item.BaseUtility * (1 - maxSim)
}

// SetUtility is the sub-additive utility of delivering the items in the
// given order: the sum of each item's marginal utility over its
// predecessors. It is order-dependent in general; Greedy chooses an order
// that maximizes it under a budget.
func SetUtility(items []Item) float64 {
	total := 0.0
	var seen []names.Name
	for _, it := range items {
		total += MarginalUtility(it, seen)
		seen = append(seen, it.Name)
	}
	return total
}

// Greedy selects items to send across a bottleneck with a byte budget,
// maximizing delivered sub-additive utility: at each step it takes the
// affordable item with the highest marginal utility per byte, stopping
// when nothing affordable adds utility. It returns indices into items in
// transmission order. A budget <= 0 means unlimited.
func Greedy(items []Item, budget int64) []int {
	remaining := budget
	chosen := make([]bool, len(items))
	var delivered []names.Name
	var order []int
	for {
		bestIdx := -1
		bestScore := 0.0
		for i, it := range items {
			if chosen[i] {
				continue
			}
			if budget > 0 && it.Size > remaining {
				continue
			}
			mu := MarginalUtility(it, delivered)
			if mu <= 0 {
				continue
			}
			size := it.Size
			if size < 1 {
				size = 1
			}
			score := mu / float64(size)
			// Ties break by lower index for determinism.
			if score > bestScore {
				bestIdx, bestScore = i, score
			}
		}
		if bestIdx < 0 {
			return order
		}
		chosen[bestIdx] = true
		order = append(order, bestIdx)
		delivered = append(delivered, items[bestIdx].Name)
		if budget > 0 {
			remaining -= items[bestIdx].Size
		}
	}
}
