package analytical

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestWrapWait(t *testing.T) {
	// Distance within one cycle: plain uniform wait D/2.
	if got := WrapWait(10, 40); !approx(got, 5) {
		t.Fatalf("WrapWait(10,40) = %v, want 5", got)
	}
	if got := WrapWait(40, 40); !approx(got, 20) {
		t.Fatalf("WrapWait(40,40) = %v, want 20", got)
	}
	// Distance spanning whole cycles exactly: wait uniform over one cycle.
	if got := WrapWait(80, 40); !approx(got, 20) {
		t.Fatalf("WrapWait(80,40) = %v, want 20", got)
	}
	// Mixed: 1 whole cycle of 40 plus a remainder of 20 over D=60:
	// (40*40/2 + 20*20/2)/60 = 1000/60.
	if got := WrapWait(60, 40); !approx(got, 1000.0/60) {
		t.Fatalf("WrapWait(60,40) = %v, want %v", got, 1000.0/60)
	}
	if WrapWait(0, 40) != 0 || WrapWait(10, 0) != 0 {
		t.Fatal("degenerate WrapWait not zero")
	}
	// Never more than half a cycle, never more than half the distance.
	for d := 1.0; d < 200; d += 7 {
		for p := 1.0; p < 100; p += 13 {
			w := WrapWait(d, p)
			if w > p/2+1e-9 || w > d/2+1e-9 || w < 0 {
				t.Fatalf("WrapWait(%v,%v) = %v outside [0, min(d,p)/2]", d, p, w)
			}
		}
	}
}

// TestKFormsReduceToSingleChannel: every K-channel form at K=1 is exactly
// the paper's single-channel expression.
func TestKFormsReduceToSingleChannel(t *testing.T) {
	tp := TreeParams{Fanout: 64, Levels: LevelsFor(64, 20000), Replicated: 2, Records: 20000}
	hp := HashParams{Allocated: 20000, Colliding: 5000, Records: 20000}
	if got, want := OneMAccessK(tp, 4, 1), OneMAccess(tp, 4); !approx(got, want) {
		t.Fatalf("OneMAccessK(.,1) = %v, want %v", got, want)
	}
	if got, want := DistAccessK(tp, 15, 1), DistAccess(tp); !approx(got, want) {
		t.Fatalf("DistAccessK(.,1) = %v, want %v", got, want)
	}
	if got, want := HashingAccessK(hp, 1), HashingAccess(hp); !approx(got, want) {
		t.Fatalf("HashingAccessK(.,1) = %v, want %v", got, want)
	}
}

// TestKFormsMonotone: for the dozing schemes, access time strictly
// improves with more replicated channels and approaches the fixed probe
// floor.
func TestKFormsMonotone(t *testing.T) {
	tp := TreeParams{Fanout: 64, Levels: LevelsFor(64, 20000), Replicated: 2, Records: 20000}
	hp := HashParams{Allocated: 20000, Colliding: 5000, Records: 20000}
	for k := 2; k <= 8; k++ {
		if !(OneMAccessK(tp, 4, k) < OneMAccessK(tp, 4, k-1)) {
			t.Fatalf("OneMAccessK not decreasing at K=%d", k)
		}
		if !(DistAccessK(tp, 15, k) < DistAccessK(tp, 15, k-1)) {
			t.Fatalf("DistAccessK not decreasing at K=%d", k)
		}
		if !(HashingAccessK(hp, k) < HashingAccessK(hp, k-1)) {
			t.Fatalf("HashingAccessK not decreasing at K=%d", k)
		}
	}
	if OneMAccessK(tp, 4, 1000) < tp.Levels+1 {
		t.Fatal("OneMAccessK fell below its fixed probe floor")
	}
}

// TestIndexDataFormsImproveDataWait: striping data over more channels
// shrinks the index/data access time.
func TestIndexDataFormsImproveDataWait(t *testing.T) {
	tp := TreeParams{Fanout: 64, Levels: LevelsFor(64, 20000), Replicated: 2, Records: 20000}
	for dc := 2; dc <= 7; dc++ {
		if !(OneMIndexDataAccess(tp, dc) < OneMIndexDataAccess(tp, dc-1)) {
			t.Fatalf("OneMIndexDataAccess not decreasing at %d data channels", dc)
		}
		if !(DistIndexDataAccess(tp, 15, dc) < DistIndexDataAccess(tp, 15, dc-1)) {
			t.Fatalf("DistIndexDataAccess not decreasing at %d data channels", dc)
		}
	}
}
