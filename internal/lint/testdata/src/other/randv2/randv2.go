// Package randv2 builds a math/rand/v2 generator from an explicit PCG
// seed outside the simulation packages: seeded construction is
// deterministic, so nothing here is a finding.
package randv2

import "math/rand/v2"

func Draw(seed uint64) int {
	return rand.New(rand.NewPCG(seed, 1)).IntN(6)
}
