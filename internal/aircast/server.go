package aircast

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"sync"
)

// Server is the broadcast daemon: one goroutine walks the current image
// frame by frame, paced to the configured bandwidth, and fans each
// sealed datagram out to the UDP socket, every in-process subscriber,
// and every connected TCP reader. Reconfiguration swaps the image
// atomically at a cycle boundary under a bumped epoch; backpressure is
// per-reader (bounded queues, drop-with-counter) so one slow reader can
// never stall the cycle — exactly the broadcast medium's indifference
// to its listeners.
type Server struct {
	cfg     Config
	metrics Metrics
	chaos   *chaosProxy

	mu      sync.Mutex
	subs    []*subscriber
	cur     *Image // image on the air (written by the loop at boundaries)
	pending *Image // queued reconfiguration, nil when none

	udp    *net.UDPConn
	tcpLn  net.Listener
	httpLn net.Listener

	stop     chan struct{} // closed by Stop: all goroutines drain out
	done     chan struct{} // closed when the broadcast loop has exited
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewServer validates the configuration and prepares a daemon serving
// the given initial image. Call Start to bind sockets and begin
// broadcasting.
func NewServer(cfg Config, img *Image) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if img == nil || img.NumFrames() == 0 {
		return nil, fmt.Errorf("aircast: no broadcast image")
	}
	s := &Server{
		cfg:  cfg,
		cur:  img,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if cfg.ChaosFaults.Enabled() {
		s.chaos = newChaosProxy(cfg.ChaosFaults, cfg.ChaosSeed)
	}
	return s, nil
}

// Start binds the configured sockets and launches the broadcast loop.
func (s *Server) Start() error {
	if s.cfg.UDPAddr != "" {
		ua, err := net.ResolveUDPAddr("udp", s.cfg.UDPAddr)
		if err != nil {
			return fmt.Errorf("aircast: udp target: %w", err)
		}
		conn, err := net.DialUDP("udp", nil, ua)
		if err != nil {
			return fmt.Errorf("aircast: udp target: %w", err)
		}
		s.udp = conn
	}
	if s.cfg.TCPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.TCPAddr)
		if err != nil {
			s.closeSockets()
			return fmt.Errorf("aircast: tcp listen: %w", err)
		}
		s.tcpLn = ln
		s.wg.Add(1)
		go s.acceptTCP()
	}
	if s.cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			s.closeSockets()
			return fmt.Errorf("aircast: http listen: %w", err)
		}
		s.httpLn = ln
		srv := &http.Server{Handler: s.handler()}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = srv.Serve(ln) // returns on listener close at Stop
		}()
	}
	s.metrics.Epoch.Store(int64(s.cur.epoch))
	s.wg.Add(1)
	go s.run()
	return nil
}

// Stop halts the broadcast, closes every socket, unblocks all
// subscribers, and waits for the daemon's goroutines to drain.
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.closeSockets()
	})
	s.wg.Wait()
}

// closeSockets closes whichever sockets were bound.
func (s *Server) closeSockets() {
	if s.udp != nil {
		_ = s.udp.Close()
	}
	if s.tcpLn != nil {
		_ = s.tcpLn.Close()
	}
	if s.httpLn != nil {
		_ = s.httpLn.Close()
	}
}

// Done is closed when the broadcast loop has exited.
func (s *Server) Done() <-chan struct{} { return s.done }

// Metrics returns the daemon's counter set.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Program returns the service contract of the image currently on the
// air (the geometry clients need before tuning in).
func (s *Server) Program() Program {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.Program()
}

// TCPAddr returns the bound TCP listen address, or "" when disabled.
func (s *Server) TCPAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// HTTPAddr returns the bound HTTP listen address, or "" when disabled.
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Swap queues a graceful reconfiguration: the new image goes on the air
// at the next cycle boundary. Its epoch must differ from the current
// one — receivers detect the bump and restart in-flight requests
// cleanly. A second Swap before the boundary replaces the first.
func (s *Server) Swap(img *Image) error {
	if img == nil || img.NumFrames() == 0 {
		return fmt.Errorf("aircast: no broadcast image")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if img.epoch == s.cur.epoch {
		return fmt.Errorf("aircast: reconfiguration must bump the epoch (still %d)", img.epoch)
	}
	s.pending = img
	return nil
}

// takePending claims the queued reconfiguration, if any, making it the
// current image.
func (s *Server) takePending() *Image {
	s.mu.Lock()
	defer s.mu.Unlock()
	img := s.pending
	if img != nil {
		s.pending = nil
		s.cur = img
	}
	return img
}

// run is the broadcast loop: frames go on the air in cycle order,
// forever, with reconfigurations taken only between cycles.
func (s *Server) run() {
	defer s.wg.Done()
	defer close(s.done)
	pace := newPacer(s.cfg.BytesPerSec)
	img := s.cur
	for {
		for i, frame := range img.frames {
			select {
			case <-s.stop:
				return
			default:
			}
			// The byte-clock advances by the payload whether or not the
			// datagram survives the chaos proxy: the air time was spent.
			payload := int64(img.sizes[i])
			pace.pace(payload)
			out := frame
			if s.chaos != nil {
				mangled, ok := s.chaos.filter(frame, payload)
				if !ok {
					s.metrics.ChaosDropped.Add(1)
					continue
				}
				if len(mangled) > 0 && &mangled[0] != &frame[0] {
					s.metrics.ChaosCorrupted.Add(1)
				}
				out = mangled
			}
			s.transmit(out)
			s.metrics.Datagrams.Add(1)
			s.metrics.BytesSent.Add(int64(len(out)))
		}
		s.metrics.Cycles.Add(1)
		if next := s.takePending(); next != nil {
			img = next
			s.metrics.Reconfigs.Add(1)
			s.metrics.Epoch.Store(int64(img.epoch))
		}
	}
}

// transmit fans one sealed frame out to every transport. Frames are
// immutable shared slices; receivers never write into them.
func (s *Server) transmit(frame []byte) {
	if s.udp != nil {
		_, _ = s.udp.Write(frame) // datagram loss is the medium's business
	}
	s.mu.Lock()
	subs := s.subs
	s.mu.Unlock()
	for _, sub := range subs {
		sub.deliver(frame, s)
	}
}

// subscriber is one fanout queue: blocking for the lossless in-process
// transport, bounded drop-with-counter for TCP readers.
type subscriber struct {
	ch        chan []byte
	done      chan struct{}
	blocking  bool
	closeOnce sync.Once
}

// deliver enqueues one frame. Blocking subscribers exert flow control
// on the cycle (the lossless reference transport); non-blocking ones
// lose the frame when full, counted in SlowReaderDrops.
func (sub *subscriber) deliver(frame []byte, s *Server) {
	if sub.blocking {
		select {
		case sub.ch <- frame:
		case <-sub.done:
		case <-s.stop:
		}
		return
	}
	select {
	case sub.ch <- frame:
	default:
		s.metrics.SlowReaderDrops.Add(1)
	}
}

// close marks the subscriber detached; deliveries stop immediately and
// any blocked sender unblocks.
func (sub *subscriber) close() {
	sub.closeOnce.Do(func() { close(sub.done) })
}

// addSub registers a fanout queue.
func (s *Server) addSub(blocking bool, depth int) *subscriber {
	sub := &subscriber{
		ch:       make(chan []byte, depth),
		done:     make(chan struct{}),
		blocking: blocking,
	}
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	return sub
}

// removeSub unregisters a fanout queue and unblocks its deliveries.
// The subscriber list is copy-on-write: transmit iterates a snapshot of
// the slice outside the lock, so removal must never shift elements of a
// backing array a snapshot may still be walking.
func (s *Server) removeSub(sub *subscriber) {
	sub.close()
	s.mu.Lock()
	for i, x := range s.subs {
		if x == sub {
			next := make([]*subscriber, 0, len(s.subs)-1)
			next = append(next, s.subs[:i]...)
			next = append(next, s.subs[i+1:]...)
			s.subs = next
			break
		}
	}
	s.mu.Unlock()
}

// InmemReceiver is the lossless in-process transport: a blocking
// subscription that exerts flow control on the broadcast loop, so no
// datagram is ever lost. It is the reference transport the exactness
// tests pin the simulator equivalence on.
type InmemReceiver struct {
	s   *Server
	sub *subscriber
}

// Subscribe attaches a lossless in-process receiver. It observes the
// stream from the next transmitted datagram onward.
func (s *Server) Subscribe() *InmemReceiver {
	sub := s.addSub(true, 16)
	s.metrics.InmemSubscribers.Add(1)
	return &InmemReceiver{s: s, sub: sub}
}

// Recv returns the next datagram frame, or false when the receiver is
// closed or the server has stopped and its queue is drained.
func (r *InmemReceiver) Recv() ([]byte, bool) {
	select {
	case f := <-r.sub.ch:
		return f, true
	default:
	}
	select {
	case f := <-r.sub.ch:
		return f, true
	case <-r.sub.done:
		return nil, false
	case <-r.s.done:
		// Server stopped; drain anything still queued.
		select {
		case f := <-r.sub.ch:
			return f, true
		default:
			return nil, false
		}
	}
}

// Close detaches the receiver.
func (r *InmemReceiver) Close() error {
	s := r.s
	s.mu.Lock()
	attached := false
	for _, x := range s.subs {
		if x == r.sub {
			attached = true
			break
		}
	}
	s.mu.Unlock()
	if attached {
		s.removeSub(r.sub)
		s.metrics.InmemSubscribers.Add(-1)
	}
	return nil
}

// acceptTCP admits catch-up readers: each gets a bounded queue and a
// writer goroutine streaming length-prefixed sealed frames.
func (s *Server) acceptTCP() {
	defer s.wg.Done()
	for {
		conn, err := s.tcpLn.Accept()
		if err != nil {
			return // listener closed at Stop
		}
		sub := s.addSub(false, s.cfg.readerQueue())
		s.metrics.ActiveReaders.Add(1)
		s.wg.Add(1)
		go s.serveReader(conn, sub)
	}
}

// serveReader drains one TCP reader's queue onto its connection as
// length-prefixed frames, until the reader hangs up or the daemon
// stops.
func (s *Server) serveReader(conn net.Conn, sub *subscriber) {
	defer func() {
		_ = conn.Close()
		s.removeSub(sub)
		s.metrics.ActiveReaders.Add(-1)
		s.wg.Done()
	}()
	var lenbuf [4]byte
	for {
		select {
		case frame := <-sub.ch:
			binary.BigEndian.PutUint32(lenbuf[:], uint32(len(frame)))
			if _, err := conn.Write(lenbuf[:]); err != nil {
				return
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		case <-s.stop:
			return
		}
	}
}
