package aircast

import (
	"strings"
	"testing"
	"time"

	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/wire"
)

func TestTransportKindRoundTrip(t *testing.T) {
	for _, k := range []TransportKind{TransportInmem, TransportUDP, TransportTCP} {
		back, err := ParseTransport(k.String())
		if err != nil || back != k {
			t.Fatalf("round trip %v: got %v, %v", k, back, err)
		}
	}
	if _, err := ParseTransport("carrier-pigeon"); err == nil {
		t.Fatal("unknown transport accepted")
	}
	if k, err := ParseTransport(""); err != nil || k != TransportInmem {
		t.Fatalf("empty transport: %v, %v", k, err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	if err := (Config{BytesPerSec: -1}).Validate(); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := (Config{ReaderQueue: -1}).Validate(); err == nil {
		t.Fatal("negative queue accepted")
	}
	bad := Config{ChaosFaults: faults.FromRate(faults.ModelDrop, 2)}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid chaos faults accepted")
	}
	ok := Config{ChaosFaults: faults.FromRate(faults.ModelDrop, 0.1)}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if (Config{}).readerQueue() != DefaultReaderQueue {
		t.Fatal("default reader queue not applied")
	}
}

// TestPacerMapsByteClockToWallClock checks the absolute-pacing law:
// after accounting B bytes at rate R, at least B/R wall seconds have
// passed since the pacer started.
func TestPacerMapsByteClockToWallClock(t *testing.T) {
	p := newPacer(1 << 20) // 1 MiB/s
	start := time.Now()
	for i := 0; i < 8; i++ {
		p.pace(8 << 10)
	}
	// 64 KiB at 1 MiB/s is 62.5 ms on the byte-clock.
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("paced 64KiB at 1MiB/s in %v", elapsed)
	}
	// Unpaced: returns immediately (just exercise the path).
	newPacer(0).pace(1 << 40)
}

// TestChaosProxyDeterministic pins the proxy to its substream: the same
// (config, seed) replays the same per-datagram fates, drops actually
// discard, and mangles fail wire verification.
func TestChaosProxyDeterministic(t *testing.T) {
	frame := wire.EncodeDatagram(wire.Datagram{Epoch: 1, Offset: 0, Bucket: 0, Payload: make([]byte, 96)})
	run := func() []bool {
		p := newChaosProxy(faults.FromRate(faults.ModelDrop, 0.2), 99)
		fates := make([]bool, 500)
		for i := range fates {
			_, ok := p.filter(frame, 96)
			fates[i] = ok
		}
		return fates
	}
	a, b := run(), run()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fate %d differs between identical replays", i)
		}
		if !a[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Fatalf("drop model dropped %d/%d", drops, len(a))
	}

	mangler := newChaosProxy(faults.FromRate(faults.ModelIID, 1e-3), 7)
	corrupted := 0
	for i := 0; i < 500; i++ {
		out, ok := mangler.filter(frame, 96)
		if !ok {
			t.Fatal("bit-flip model dropped a datagram")
		}
		if &out[0] != &frame[0] {
			corrupted++
			if _, err := wire.DecodeDatagram(out); err == nil {
				t.Fatal("mangled frame passed verification")
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("bit-flip model corrupted nothing at BER 1e-3 over 500 frames")
	}
}

func TestMetricsRender(t *testing.T) {
	var m Metrics
	m.Cycles.Add(3)
	m.Datagrams.Add(77)
	var sb strings.Builder
	m.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE aircast_cycles_total counter",
		"aircast_cycles_total 3",
		"aircast_datagrams_sent_total 77",
		"# TYPE aircast_epoch gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}
