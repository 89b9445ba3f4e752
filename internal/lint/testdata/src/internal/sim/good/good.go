// Package good exercises the determinism and maporder negative cases:
// seeded randomness where internal/sim owns it, sorted map iteration,
// and an integer fold whose result is the same in any order.
package good

import (
	"math/rand"
	"sort"
	"time"
)

// Seeded randomness through explicit constructors is fine.
func DrawSeeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6)
}

// Pure duration arithmetic never reads the clock.
func Budget() time.Duration {
	return 3 * time.Millisecond
}

// Map iteration followed by a sort is deterministic.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// An integer sum is exact in any order, so returning it is fine.
func Total(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}
