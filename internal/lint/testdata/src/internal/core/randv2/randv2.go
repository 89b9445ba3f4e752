// Package randv2 builds a math/rand/v2 generator directly inside a
// simulation-critical package: one direct-construction finding at the
// outer rand.New, none for the nested rand.NewPCG.
package randv2

import "math/rand/v2"

func Draw(seed uint64) int {
	return rand.New(rand.NewPCG(seed, 1)).IntN(6) // line 9: direct construction
}
