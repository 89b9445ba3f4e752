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

// TestRoundAllocFree: once a stream has served its first round, a whole
// round — key and arrival draws, every lane resolved or walked, the
// counter folds and the bulk sample folds — allocates nothing. Every
// registered scheme is checked on a perfect channel (where the
// resolver schemes resolve), under drop faults with bounded retries,
// and on four channels.
func TestRoundAllocFree(t *testing.T) {
	settings := []struct {
		name string
		set  func(*Config)
	}{
		{"clean", func(*Config) {}},
		{"drop", func(c *Config) {
			c.Faults = faults.FromRate(faults.ModelDrop, 0.2)
			c.Faults.MaxRetries = 50
		}},
		{"K=4", func(c *Config) { c.Multi = multichannel.Config{Channels: 4} }},
	}
	for _, scheme := range SchemeNames() {
		for _, set := range settings {
			cfg := smallConfig(scheme, 300)
			set.set(&cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := s.newStream(0, 1)
			round := func() {
				if err := s.round(st); err != nil {
					t.Fatal(err)
				}
			}
			round() // the first round builds the stream's client
			if avg := testing.AllocsPerRun(20, round); avg != 0 {
				t.Errorf("%s %s: a round allocates %v times, want 0", scheme, set.name, avg)
			}
			if st.done || st.rounds != 22 {
				t.Errorf("%s %s: %d full rounds served (done %v), want 22; the measured rounds were not full", scheme, set.name, st.rounds, st.done)
			}
		}
	}
}
