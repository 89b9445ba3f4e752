// Package aircast promotes the simulator's broadcast cycle onto a real
// transport: a long-running daemon streams the encoded bucket cycle as
// sequenced datagrams (wire.EncodeDatagram: epoch + cycle offset +
// bucket index, CRC32C-sealed) over UDP and an in-process lossless
// conduit, with a TCP fallback for catch-up readers, paced to a
// configurable bandwidth so wall-clock maps onto the byte-clock. The
// Session type turns the internal/airborne byte-driven receivers into
// genuine network clients: they tune in, sleep through doze intervals by
// skipping datagrams, ride the schemes' protocol state machines
// unchanged, and report the paper's access/tuning byte counters measured
// off the wire.
//
// Determinism boundary (DESIGN.md §10): this is the one package allowed
// to read the wall clock and spawn goroutines — a live daemon is
// inherently concurrent and paced in real time. The determinism contract
// holds at its edges instead: the broadcast image is a pure function of
// the simulator's channel construction, the chaos proxy draws every
// drop/corruption decision from the same deterministic faults.Injector
// substream as the simulated unreliable channel, and on the lossless
// in-memory transport a Session's per-request accounting is bit-identical
// to access.Walk over the same cycle (the e2e tests pin this).
package aircast

import (
	"fmt"

	"github.com/airindex/airindex/internal/airborne"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/units"
)

// TransportKind selects how a client receives the datagram stream. It is
// a closed enum: the airlint exhaustive analyzer requires every switch
// over it to cover all constants or carry a default.
type TransportKind uint8

const (
	// TransportInmem subscribes in-process through Server.Subscribe —
	// the lossless flow-controlled reference transport the exactness
	// tests and the demo use.
	TransportInmem TransportKind = iota
	// TransportUDP listens for datagrams on the server's UDP target
	// address (unicast loopback or a multicast group).
	TransportUDP
	// TransportTCP connects to the server's TCP listener and reads the
	// length-prefixed catch-up stream.
	TransportTCP
)

// String returns the transport's CLI name.
func (k TransportKind) String() string {
	switch k {
	case TransportInmem:
		return "inmem"
	case TransportUDP:
		return "udp"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("transport(%d)", uint8(k))
	}
}

// ParseTransport maps a CLI name to its TransportKind.
func ParseTransport(s string) (TransportKind, error) {
	switch s {
	case "", "inmem":
		return TransportInmem, nil
	case "udp":
		return TransportUDP, nil
	case "tcp":
		return TransportTCP, nil
	default:
		return TransportInmem, fmt.Errorf("aircast: unknown transport %q (have inmem, udp, tcp)", s)
	}
}

// Config parameterizes the daemon. The zero value serves the in-memory
// transport only, unpaced, with chaos off.
type Config struct {
	// BytesPerSec paces the broadcast: the wall-clock bandwidth the
	// byte-clock is mapped onto. 0 broadcasts as fast as receivers and
	// sockets allow (the test configuration).
	BytesPerSec int64

	// UDPAddr is the datagram target — a unicast address (one listener)
	// or a multicast group. Empty disables the UDP path.
	UDPAddr string
	// TCPAddr is the listen address for catch-up readers. Empty disables
	// the TCP listener. ":0" binds an ephemeral port (see Server.TCPAddr).
	TCPAddr string
	// HTTPAddr is the listen address for the /metrics and /healthz
	// endpoints. Empty disables HTTP. ":0" binds an ephemeral port.
	HTTPAddr string

	// ReaderQueue bounds each TCP reader's datagram queue; a slow reader
	// overflowing it loses datagrams (counted in
	// aircast_slow_reader_drops_total) rather than stalling the cycle.
	// 0 selects DefaultReaderQueue.
	ReaderQueue int

	// ChaosFaults drives the transport chaos proxy, which runs exactly
	// when ChaosFaults.Enabled(): ModelDrop discards datagrams, the
	// bit-level models (iid, ge) flip one deterministically chosen bit so
	// receivers see a CRC failure. ChaosSeed selects its substream,
	// exactly as in the simulator's unreliable-channel layer.
	ChaosFaults faults.Config
	ChaosSeed   int64
}

// DefaultReaderQueue is the per-reader bounded queue length used when
// Config.ReaderQueue is 0.
const DefaultReaderQueue = 256

// readerQueue returns the effective per-reader queue bound.
func (c Config) readerQueue() int {
	if c.ReaderQueue <= 0 {
		return DefaultReaderQueue
	}
	return c.ReaderQueue
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.BytesPerSec < 0 {
		return fmt.Errorf("aircast: bytes per second %d must be non-negative", c.BytesPerSec)
	}
	if c.ReaderQueue < 0 {
		return fmt.Errorf("aircast: reader queue %d must be non-negative", c.ReaderQueue)
	}
	return c.ChaosFaults.Validate()
}

// Program is the published service contract a client knows before tuning
// in: which scheme is on the air, the airborne contract (data geometry
// and scheme parameters), and the cycle geometry the receiver needs to
// reconstruct the byte-clock from datagram headers. Everything else
// comes off the wire.
type Program struct {
	// Scheme is the broadcast's scheme name, one that has a byte-driven
	// client (airborne.Schemes lists them).
	Scheme string
	// Contract is the byte-driven clients' service contract.
	Contract airborne.Contract
	// CycleLen is the broadcast cycle length in bytes.
	CycleLen units.ByteCount
	// NumBuckets is the cycle's bucket count.
	NumBuckets units.BucketCount
}
