package core

import (
	"testing"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/multichannel"
)

// TestRecoveryWalkAllocFree: with a rewindable client, the simulator's
// per-lane recovery walk allocates nothing, neither at the start of a
// request nor at any restart after a corrupted read. Every registered
// scheme is checked whose client implements access.Rewinder, which
// includes the signature family and the hybrid, on one channel and on
// four; a run of restarts must actually happen.
func TestRecoveryWalkAllocFree(t *testing.T) {
	for _, scheme := range SchemeNames() {
		for _, k := range []int{0, 4} {
			cfg := smallConfig(scheme, 300)
			cfg.Faults = faults.FromRate(faults.ModelDrop, 0.2)
			cfg.Faults.MaxRetries = 50
			cfg.Multi = multichannel.Config{Channels: k}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := s.bc.NewClient(s.ds.KeyAt(0)).(access.Rewinder); !ok {
				t.Errorf("%s clients are not rewindable; every restart allocates a client", scheme)
				continue
			}
			st := s.newStream(0, 1)
			i, restarts := 0, 0
			walk := func() {
				i++
				st.curKey = s.ds.KeyAt((i * 7) % s.ds.Len())
				r, err := s.walk(st, st.renew, sim150(i))
				if err != nil {
					t.Fatal(err)
				}
				restarts += r.Restarts
			}
			walk() // the first request builds the stream's client
			if avg := testing.AllocsPerRun(100, walk); avg != 0 {
				t.Errorf("%s K=%d: a recovery walk allocates %v times, want 0", scheme, k, avg)
			}
			if restarts == 0 {
				t.Errorf("%s K=%d: no restarts at a 20%% drop rate; the restart path went unmeasured", scheme, k)
			}
		}
	}
}
