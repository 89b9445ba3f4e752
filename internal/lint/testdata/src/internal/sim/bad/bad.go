// Package bad trips determinism (wall-clock reads, global math/rand) and
// maporder (a map iteration whose order leaks into a returned slice).
package bad

import (
	"math/rand"
	"time"
)

func Stamp() int64 {
	return time.Now().UnixNano() // line 11: wall clock
}

func Nap() {
	time.Sleep(time.Millisecond) // line 15: wall clock
}

func Draw() int {
	return rand.Intn(6) // line 19: global randomness
}

func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // line 24: unsorted map iteration feeding a slice
		out = append(out, k)
	}
	return out // line 27: the unsorted slice is returned
}
