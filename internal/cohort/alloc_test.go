package cohort

import (
	"strings"
	"testing"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/schemes/flat"
	"github.com/airindex/airindex/internal/sim"
)

// buildFlat constructs a small flat broadcast for kernel tests; flat
// both resolves in closed form and rewinds, so one scheme exercises
// every steady-state path.
func buildFlat(t testing.TB, records int) (*flat.Broadcast, *datagen.Dataset) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Default(records))
	if err != nil {
		t.Fatal(err)
	}
	bc, err := flat.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	return bc, ds
}

// fill generates a deterministic mixed batch: present keys at uneven
// arrival phases, with every fifth lane asking for an absent key.
func fill(b *Batch, ds *datagen.Dataset, n int) {
	b.Reset(n)
	for i := 0; i < n; i++ {
		b.Arrival[i] = sim.Time(i*977 + i*i*13)
		if i%5 == 4 {
			b.Key[i] = ds.MissingKeyNear(i % ds.Len())
		} else {
			b.Key[i] = ds.KeyAt((i * 3) % ds.Len())
		}
	}
}

// prime readies the Clients column the way the cohort driver does:
// rewind in place when possible, allocate otherwise.
func prime(b *Batch, bc access.Broadcast) {
	for i := 0; i < b.Len(); i++ {
		if rw, ok := b.Clients[i].(access.Rewinder); ok {
			rw.Rewind(b.Key[i])
			continue
		}
		b.Clients[i] = bc.NewClient(b.Key[i])
	}
}

// TestKernelsAllocFree is the runtime backstop behind escapecheck for
// the batch kernels: after the arena and client column warm up, a full
// generate→advance round performs zero heap allocations per request for
// both the resolver and the stepped kernel.
func TestKernelsAllocFree(t *testing.T) {
	bc, ds := buildFlat(t, 64)
	const lanes = 32

	resolved := New()
	fill(resolved, ds, lanes) // warm the arena
	if avg := testing.AllocsPerRun(50, func() {
		fill(resolved, ds, lanes)
		if !resolved.ResolveLanes(bc) {
			t.Fatal("flat resolver declined")
		}
	}); avg != 0 {
		t.Errorf("ResolveLanes round allocates %v times, want 0", avg)
	}

	stepped := New()
	fill(stepped, ds, lanes)
	prime(stepped, bc) // warm the arena and the client column
	if avg := testing.AllocsPerRun(50, func() {
		fill(stepped, ds, lanes)
		prime(stepped, bc)
		if !stepped.AdvanceClean(bc.Channel(), 0) {
			t.Fatal("clean walk failed")
		}
	}); avg != 0 {
		t.Errorf("AdvanceClean round allocates %v times, want 0", avg)
	}
}

// TestKernelsAgree pins the per-lane bit-identity of the two kernels on
// the same batch contents.
func TestKernelsAgree(t *testing.T) {
	bc, ds := buildFlat(t, 64)
	const lanes = 48

	a := New()
	fill(a, ds, lanes)
	if !a.ResolveLanes(bc) {
		t.Fatal("flat resolver declined")
	}
	b := New()
	fill(b, ds, lanes)
	prime(b, bc)
	if !b.AdvanceClean(bc.Channel(), 0) {
		t.Fatal("clean walk failed")
	}
	for i := 0; i < lanes; i++ {
		if a.Access[i] != b.Access[i] || a.Tuning[i] != b.Tuning[i] ||
			a.Probes[i] != b.Probes[i] || a.Found[i] != b.Found[i] {
			t.Fatalf("lane %d: resolver (%d/%d/%d/%v) != stepped (%d/%d/%d/%v)",
				i, a.Access[i], a.Tuning[i], a.Probes[i], a.Found[i],
				b.Access[i], b.Tuning[i], b.Probes[i], b.Found[i])
		}
		if a.State[i] != LaneDone || b.State[i] != LaneDone {
			t.Fatalf("lane %d not done: %d %d", i, a.State[i], b.State[i])
		}
	}
}

// TestResetPreservesClientsAndZeroesResults covers the arena contract:
// Reset keeps the client column for rewinding, zeroes result columns,
// and grows capacity without losing clients.
func TestResetPreservesClientsAndZeroesResults(t *testing.T) {
	bc, ds := buildFlat(t, 16)
	b := New()
	fill(b, ds, 8)
	prime(b, bc)
	if !b.AdvanceClean(bc.Channel(), 0) {
		t.Fatal("walk failed")
	}
	kept := b.Clients[3]
	if kept == nil {
		t.Fatal("client column not populated")
	}
	b.Reset(8)
	if b.Clients[3] != kept {
		t.Fatal("Reset dropped a reusable client")
	}
	for i := 0; i < 8; i++ {
		if b.State[i] != LanePending || b.Access[i] != 0 || b.Tuning[i] != 0 ||
			b.Probes[i] != 0 || b.Found[i] || b.Restarts[i] != 0 {
			t.Fatalf("lane %d not reset: %+v", i, b.State[i])
		}
	}
	if b.FailLane != -1 || b.Err != nil {
		t.Fatal("failure fields not reset")
	}
	b.Reset(16) // grow
	if b.Len() != 16 {
		t.Fatalf("grow to 16 lanes failed: %d", b.Len())
	}
	if b.Clients[3] != kept {
		t.Fatal("grow dropped a reusable client")
	}
}

// TestAdvanceCleanBudget covers the step-budget failure path: a
// one-step budget cannot finish a scan, and the batch must record the
// failing lane.
func TestAdvanceCleanBudget(t *testing.T) {
	bc, ds := buildFlat(t, 16)
	b := New()
	fill(b, ds, 4)
	prime(b, bc)
	if b.AdvanceClean(bc.Channel(), 1) {
		t.Fatal("one-step budget should fail a multi-bucket scan")
	}
	if b.Err == nil || !strings.Contains(b.Err.Error(), "exceeded 1 steps") || b.FailLane < 0 || b.State[b.FailLane] != LaneFailed {
		t.Fatalf("budget failure not recorded: err=%v lane=%d", b.Err, b.FailLane)
	}
}
