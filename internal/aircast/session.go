package aircast

import (
	"fmt"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/airborne"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// Session is the netclient layer: it promotes the byte-driven airborne
// clients into network receivers. The session reconstructs the
// broadcast byte-clock from datagram headers (epoch + cycle offset),
// feeds each received bucket payload to the scheme's unmodified
// protocol state machine, and realizes doze intervals by skipping
// datagrams — tuning time is therefore *measured* as the payload bytes
// of frames actually read, never inferred from server-side metadata.
//
// Measurement contract: on a lossless transport a request's Result is
// bit-identical to access.Walk over the same cycle with arrival at the
// first fed bucket's start (the e2e tests pin this). On a lossy or
// chaos-injected path the session additionally reproduces
// access.WalkRecover's recovery accounting: a frame failing
// wire.Verify is a corrupted read (tuning charged, Restarts/Wasted
// bumped, fresh client per RecoverPolicy), and a datagram that never
// arrives — detected as a gap where the protocol expected the next
// contiguous bucket, or a doze target that went missing — is a restart
// with no tuning charge (nothing was read). The paper's clients always
// doze to exact bucket starts, so a woken frame that does not start
// precisely at the wake time means the target was lost in flight.
//
// An epoch bump observed mid-request means the broadcast was
// reconfigured: the protocol state and clock anchor are stale, so the
// session restarts the request with a fresh client (counted in
// EpochRestarts, not Restarts) and re-anchors its clock.
type Session struct {
	// Policy is the recovery policy applied to corrupted or lost
	// datagrams, exactly as in access.WalkRecover.
	Policy access.RecoverPolicy
	// MaxSteps bounds datagrams consumed per request (doze skips
	// included); <= 0 selects access.DefaultMaxSteps.
	MaxSteps int

	rx   Receiver
	prog Program
	src  *liveSource

	// Byte-clock reconstruction: the session's private clock starts at 0
	// at the first frame and advances with the air, not the wall.
	started    bool
	epoch      uint32
	base       sim.Time // absolute time of the current cycle's offset 0
	lastOffset units.ByteOffset
	lastEnd    sim.Time // absolute end of the last frame accounted
}

// NetResult is one network request's outcome: the simulator's recovery
// accounting plus the live path's own coordinates.
type NetResult struct {
	access.FaultyResult
	// Arrival is the request's tune-in instant on the session's clock:
	// the start of the first bucket fed to the client.
	Arrival sim.Time
	// FirstBucket is that bucket's cycle index — the anchor for
	// simulator predictions (arrival = StartInCycle(FirstBucket)); -1 if
	// the session never fed a clean bucket.
	FirstBucket units.BucketIndex
	// EpochRestarts counts restarts forced by mid-request broadcast
	// reconfigurations (distinct from loss-driven Restarts).
	EpochRestarts int
}

// NewSession attaches a netclient to a datagram stream serving the
// given program.
func NewSession(rx Receiver, prog Program) *Session {
	return &Session{
		rx:   rx,
		prog: prog,
		src:  &liveSource{n: prog.NumBuckets},
	}
}

// Close detaches the session from its transport.
func (s *Session) Close() error { return s.rx.Close() }

// Source returns the session's airborne.Source: it serves exactly the
// bucket most recently fed to the client, straight off the wire.
func (s *Session) Source() airborne.Source { return s.src }

// liveSource implements airborne.Source over the live stream: the only
// bucket it can serve is the one the walker was just charged for, which
// is precisely the byteclock analyzer's call discipline.
type liveSource struct {
	n       units.BucketCount
	idx     units.BucketIndex
	payload []byte
}

// Of returns the on-air bucket's payload.
func (ls *liveSource) Of(i units.BucketIndex) []byte {
	if i != ls.idx {
		panic(fmt.Sprintf("aircast: client asked for bucket %d while bucket %d is on the air", i, ls.idx))
	}
	return ls.payload
}

// NumBuckets returns the cycle's bucket count.
func (ls *liveSource) NumBuckets() units.BucketCount { return ls.n }

// liveFrame is one datagram mapped onto the session's byte-clock. A
// frame that failed verification has a nil payload and an unknown
// bucket index; its position is inferred from stream contiguity and its
// size from the frame length (the receiver listened to all of it).
type liveFrame struct {
	start        sim.Time
	size         units.ByteCount
	idx          units.BucketIndex
	payload      []byte
	epochChanged bool
}

// next receives and clocks one frame. Stale frames (duplicates or
// reorderings that land before the clock's high-water mark) are
// dropped transparently.
func (s *Session) next() (liveFrame, bool) {
	for {
		raw, ok := s.rx.Recv()
		if !ok {
			return liveFrame{}, false
		}
		size := units.Bytes(len(raw)) - wire.DatagramOverhead
		if size < 0 {
			size = 0
		}
		d, err := wire.DecodeDatagram(raw)
		if err != nil {
			// Corrupted in flight: the header cannot be trusted, so the
			// position is inferred from contiguity — exact whenever loss
			// and corruption do not mix (each chaos model does one).
			f := liveFrame{start: s.lastEnd, size: size, idx: -1}
			s.lastEnd = f.start + size.Span()
			return f, true
		}
		size = units.Bytes(len(d.Payload))
		if !s.started || d.Epoch != s.epoch {
			// First frame, or a reconfigured broadcast: anchor the new
			// cycle so this frame continues the clock without a gap.
			f := liveFrame{epochChanged: s.started}
			s.started = true
			s.epoch = d.Epoch
			s.base = s.lastEnd - d.Offset.Extent().Span()
			s.lastOffset = d.Offset
			f.start, f.size, f.idx, f.payload = s.lastEnd, size, d.Bucket, d.Payload
			s.lastEnd = f.start + size.Span()
			return f, true
		}
		if d.Offset < s.lastOffset {
			// The cycle wrapped.
			s.base += s.prog.CycleLen.Span()
		}
		start := d.Offset.At(s.base)
		if start < s.lastEnd {
			continue // stale duplicate/reordering
		}
		s.lastOffset = d.Offset
		s.lastEnd = start + size.Span()
		return liveFrame{start: start, size: size, idx: d.Bucket, payload: d.Payload}, true
	}
}

// nextCycleStart returns the start of the broadcast cycle after the
// one currently on the air.
func (s *Session) nextCycleStart() sim.Time {
	return s.base + s.prog.CycleLen.Span()
}

// fail accounts one loss-driven restart and reports whether the retry
// budget is exhausted, mirroring access.WalkRecover's abandonment.
func (s *Session) fail(res *NetResult, haveArrival bool, at sim.Time) bool {
	res.Restarts++
	if s.Policy.MaxRetries > 0 && res.Restarts > s.Policy.MaxRetries {
		if haveArrival {
			res.Access = units.Elapsed(res.Arrival, at)
		}
		res.Found = false
		res.Unrecovered = true
		return true
	}
	return false
}

// resolve runs one request: cl is the first protocol state machine, and
// newClient returns a fresh one, reading from this session's Source, for
// each restart. The walk mechanics mirror access.Walk/WalkRecover,
// driven by received datagrams instead of channel geometry.
func (s *Session) resolve(cl access.Client, newClient func() access.Client) (NetResult, error) {
	maxSteps := s.MaxSteps
	if maxSteps <= 0 {
		maxSteps = access.DefaultMaxSteps
	}
	var res NetResult
	res.FirstBucket = -1
	haveArrival := false
	var dozing, targeted bool
	var wake sim.Time
	expect := units.Index(-1)
	var expectAt sim.Time

	for step := 0; step < maxSteps; step++ {
		f, ok := s.next()
		if !ok {
			return res, fmt.Errorf("aircast: transport closed mid-request")
		}
		if f.epochChanged && haveArrival {
			// Broadcast reconfigured mid-request: protocol state and all
			// pending targets are stale. Restart at this frame.
			res.EpochRestarts++
			cl = newClient()
			dozing, targeted = false, false
			expect = -1
		}
		corrupt := f.payload == nil
		if dozing {
			if f.start < wake {
				continue // dozing through: skipped datagrams cost nothing
			}
			missed := targeted && f.start != wake
			dozing, targeted = false, false
			if missed && !corrupt {
				// The doze target was dropped in flight: nothing was read
				// (no tuning), but the protocol state is stale.
				if s.fail(&res, haveArrival, f.start) {
					return res, nil
				}
				cl = newClient()
				if s.Policy.NextCycle {
					dozing, wake = true, s.nextCycleStart()
					if f.start < wake {
						continue
					}
					dozing = false
				}
			}
		} else if expect >= 0 && !corrupt && (f.idx != expect || f.start != expectAt) {
			// The immediately-next bucket never arrived.
			if s.fail(&res, haveArrival, f.start) {
				return res, nil
			}
			cl = newClient()
			if s.Policy.NextCycle {
				dozing, wake = true, s.nextCycleStart()
				expect = -1
				if f.start < wake {
					continue
				}
				dozing = false
			}
		}
		expect = -1

		// Read the frame: the receiver pays the payload in tuning time
		// whether or not it verifies.
		end := f.start + f.size.Span()
		if !haveArrival {
			haveArrival = true
			res.Arrival = f.start
			res.FirstBucket = f.idx
		}
		res.Tuning += f.size
		res.Probes++
		if corrupt {
			res.Wasted += f.size
			if s.fail(&res, true, end) {
				return res, nil
			}
			cl = newClient()
			if s.Policy.NextCycle {
				dozing, wake = true, s.nextCycleStart()
			}
			continue
		}
		s.src.idx, s.src.payload = f.idx, f.payload
		st := cl.OnBucket(f.idx, end)
		switch st.Kind {
		case access.StepNext:
			expect = f.idx.Next(s.prog.NumBuckets)
			expectAt = end
		case access.StepDoze:
			if st.At < end {
				return res, fmt.Errorf("aircast: client dozed into the past: %d < %d", st.At, end)
			}
			dozing, wake, targeted = true, st.At, true
		case access.StepDone:
			res.Access = units.Elapsed(res.Arrival, end)
			res.Found = st.Found
			return res, nil
		default:
			return res, fmt.Errorf("aircast: invalid step kind %d", st.Kind)
		}
	}
	return res, fmt.Errorf("aircast: request exceeded %d datagrams without terminating", maxSteps)
}

// newByteClient is airborne.NewClient; a test counts its calls.
var newByteClient = airborne.NewClient

// ResolveKey runs one primary-key request with the program's scheme
// riding the session, building a fresh byte-driven airborne client per
// protocol (re)start.
func (s *Session) ResolveKey(key uint64) (NetResult, error) {
	cl, err := newByteClient(s.prog.Scheme, s.src, s.prog.Contract, key)
	if err != nil {
		return NetResult{}, err
	}
	return s.resolve(cl, func() access.Client {
		c, _ := newByteClient(s.prog.Scheme, s.src, s.prog.Contract, key)
		return c
	})
}
