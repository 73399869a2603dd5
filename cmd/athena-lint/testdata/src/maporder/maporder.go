// Package maporder is a fixture corpus for the maporder check:
// map-iteration-order-dependent output.
package maporder

import (
	"fmt"
	"sort"
	"time"
)

// PrintAll emits in map order: violation.
func PrintAll(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Keys collects then sorts: fine.
func Keys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Unsorted leaks map order through the returned slice: violation.
func Unsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Concat builds a string in map order: violation.
func Concat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k
	}
	return s
}

// Sum aggregates commutatively: fine.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// HelperSorted accumulates in map order but hands the slice to a
// same-package helper that sorts it: fine.
func HelperSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

// HelperUnsorted passes the slice to a helper that merely measures it;
// the map order still leaks: violation.
func HelperUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	measure(out)
	return out
}

// sortStrings is the factored-out ordering contract.
func sortStrings(s []string) {
	sort.Strings(s)
}

// measure does not sort its argument.
func measure(s []string) int {
	return len(s)
}

// label is a shared label record, as the label cache keeps them.
type label struct {
	Signature string
	Expires   time.Time
}

// Freshest is the label cache's lookup as it first was: the freshest
// record, with equally fresh ones left to map order: violation.
func Freshest(byAnn map[string]*label) *label {
	var best *label
	for _, rec := range byAnn {
		if best == nil || rec.Expires.After(best.Expires) {
			best = rec
		}
	}
	return best
}

// FreshestBySignature breaks the ties by signature, a total order: fine.
func FreshestBySignature(byAnn map[string]*label) *label {
	var best *label
	for _, rec := range byAnn {
		if best == nil || rec.Expires.After(best.Expires) ||
			rec.Expires.Equal(best.Expires) && rec.Signature < best.Signature {
			best = rec
		}
	}
	return best
}

// ArgMax keeps the key of the largest value, and equal values leave it to
// map order: violation.
func ArgMax(m map[string]int) string {
	best, max := "", 0
	for k, v := range m {
		if best == "" || v > max {
			max, best = v, k
		}
	}
	return best
}

// Max keeps only the compared value, the same whichever tie wins: fine.
func Max(m map[string]int) int {
	max := 0
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

// MinKey keeps the smallest key; keys are distinct, so nothing ties: fine.
func MinKey(m map[string]int) string {
	best := ""
	for k := range m {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}
