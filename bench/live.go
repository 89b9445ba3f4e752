package main

import (
	"fmt"
	"time"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/airborne"
	"github.com/airindex/airindex/internal/aircast"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/schemes/dist"
	"github.com/airindex/airindex/internal/schemes/hashing"
	"github.com/airindex/airindex/internal/schemes/onem"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// liveWorkload is the live-inmem workload: an unpaced aircast.Server on
// the lossless in-process transport for each of the five airborne
// schemes. Set-up is datagen, Build and BuildImage per scheme. A pass
// starts each scheme's server in turn; its sessions resolve uniformly
// drawn keys in a closed loop, and session 0 swaps in a re-framed image
// (the next epoch) every swapEvery keys, which forces epoch restarts
// and image builds beside the reads. An operation is one ResolveKey.
type liveWorkload struct {
	seed                          int64
	records, sessions, keys, swap int

	stations []*station
	rngs     [][]*sim.RNG // per scheme and session: the key stream
	passes   int64

	outs   [][][]liveOut // last pass: per scheme, per session, per key
	swapOK []bool        // last pass: per scheme, every swap succeeded
	checks tally
}

// station is one scheme's broadcast, ready to go on the air.
type station struct {
	cfg   core.Config
	ds    *datagen.Dataset
	bc    access.Broadcast
	prog  aircast.Program
	img   *aircast.Image
	bytes *airborne.Bytes
}

// liveOut is one resolved key.
type liveOut struct {
	key uint64
	res aircast.NetResult
	err error
}

// liveSchemes are the schemes the airborne byte-driven clients speak.
var liveSchemes = []string{"flat", "(1,m)", "distributed", "hashing", "signature"}

func newLive(seed int64, tiny bool) *liveWorkload {
	l := &liveWorkload{seed: seed, records: 2000, sessions: 2, keys: 300, swap: 100}
	if tiny {
		l.records, l.keys, l.swap = 300, 10, 4
	}
	l.rngs = make([][]*sim.RNG, len(liveSchemes))
	for i := range l.rngs {
		for j := 0; j < l.sessions; j++ {
			l.rngs[i] = append(l.rngs[i], sim.NewShardRNG(seed, i*l.sessions+j))
		}
	}
	return l
}

func (l *liveWorkload) setup() error {
	stations := make([]*station, len(liveSchemes))
	for i, scheme := range liveSchemes {
		cfg := core.DefaultConfig(scheme, l.records)
		cfg.Seed = l.seed
		ds, err := datagen.Generate(cfg.Data)
		if err != nil {
			return err
		}
		bc, err := core.BuildBroadcast(ds, cfg)
		if err != nil {
			return err
		}
		prog := program(cfg, bc)
		img, err := aircast.BuildImage(1, prog, bc.Channel())
		if err != nil {
			return err
		}
		stations[i] = &station{cfg: cfg, ds: ds, bc: bc, prog: img.Program(), img: img, bytes: airborne.NewBytes(bc.Channel())}
	}
	l.stations = stations
	return nil
}

// program is the service contract a network client is handed out of
// band. cmd/aircast and the aircast e2e tests build the same one.
func program(cfg core.Config, bc access.Broadcast) aircast.Program {
	c := airborne.Contract{
		RecordSize:   cfg.Data.RecordSize,
		KeySize:      cfg.Data.KeySize,
		NumRecords:   cfg.Data.NumRecords,
		SigBytes:     cfg.Signature.SigBytes,
		BitsPerField: cfg.Signature.BitsPerField,
	}
	switch b := bc.(type) {
	case *dist.Broadcast:
		c.TreeLayout = b.Layout()
	case *onem.Broadcast:
		c.TreeLayout = b.Layout()
	case *hashing.Broadcast:
		c.HashPositions = int(b.Params()["Na"])
	}
	return aircast.Program{Scheme: cfg.Scheme, Contract: c}
}

func (l *liveWorkload) pass(tr *tracer) (int64, []time.Duration, error) {
	l.passes++
	l.outs = make([][][]liveOut, len(l.stations))
	l.swapOK = make([]bool, len(l.stations))
	var lat []time.Duration
	var requests int64
	for si, st := range l.stations {
		keys := make([][]uint64, l.sessions)
		for j := range keys {
			for k := 0; k < l.keys; k++ {
				keys[j] = append(keys[j], st.ds.KeyAt(l.rngs[si][j].Intn(st.ds.Len())))
			}
		}
		srv, err := aircast.NewServer(aircast.Config{}, st.img)
		if err != nil {
			return 0, nil, err
		}
		if err := srv.Start(); err != nil {
			return 0, nil, err
		}
		outs := make([][]liveOut, l.sessions)
		lats := make([][]time.Duration, l.sessions)
		swapErrs := make([]error, l.sessions)
		concurrently(l.sessions, func(j int) {
			req := ((l.passes*int64(len(l.stations))+int64(si))*int64(l.sessions) + int64(j)) * int64(l.keys)
			outs[j], lats[j], swapErrs[j] = l.session(tr, srv, st, keys[j], j == 0, req)
		})
		srv.Stop()
		l.outs[si] = outs
		l.swapOK[si] = swapErrs[0] == nil
		for j := range outs {
			lat = append(lat, lats[j]...)
			requests += int64(len(outs[j]))
		}
	}
	return requests, lat, nil
}

// session resolves keys over one in-process subscription. The swapper
// queues a re-framed image with the next epoch every l.swap keys. The
// first swap error stops further swaps and is returned.
func (l *liveWorkload) session(tr *tracer, srv *aircast.Server, st *station, keys []uint64, swapper bool, req int64) ([]liveOut, []time.Duration, error) {
	var rx aircast.Receiver = srv.Subscribe()
	var timed *timedReceiver
	if tr != nil {
		timed = &timedReceiver{rx: rx}
		rx = timed
	}
	sess := aircast.NewSession(rx, st.prog)
	defer sess.Close()
	outs := make([]liveOut, 0, len(keys))
	lat := make([]time.Duration, 0, len(keys))
	epoch := st.img.Epoch()
	var swapErr error
	for k, key := range keys {
		out, d := resolve(tr, 0, sess, timed, key, req+int64(k))
		outs = append(outs, out)
		lat = append(lat, d)
		if out.err != nil {
			break // the session's transport is gone
		}
		if swapper && swapErr == nil && (k+1)%l.swap == 0 && k+1 < len(keys) {
			sp := tr.begin("aircast.swap", 0, -1)
			epoch++
			img, err := aircast.BuildImage(epoch, st.prog, st.bc.Channel())
			if err == nil {
				err = srv.Swap(img)
			}
			tr.end(sp, 1)
			swapErr = err
		}
	}
	return outs, lat, swapErr
}

// resolve times one ResolveKey. On a traced session it records the key's
// span, the folded time inside Recv, and the frames it read.
func resolve(tr *tracer, parent int, sess *aircast.Session, timed *timedReceiver, key uint64, req int64) (liveOut, time.Duration) {
	sp := tr.begin("aircast.resolve_key", parent, req)
	t0 := now()
	res, err := sess.ResolveKey(key)
	d := now().Sub(t0)
	if timed != nil {
		recv, n := timed.take()
		tr.fold("aircast.recv", sp, recv, n)
		tr.add("aircast.frames_read", int64(res.Probes))
		tr.add("aircast.epoch_restarts", int64(res.EpochRestarts))
	}
	tr.end(sp, 1)
	return liveOut{key: key, res: res, err: err}, d
}

// timedReceiver wraps a session's transport and estimates the time spent
// inside Recv: fan-out plus waiting for the transmitter. The rest of a
// ResolveKey is session decode, byte-clock and client work. A clock read
// costs a sizeable share of one Recv, so only every recvSample-th call
// is timed and the sum is scaled up; the sample stride is prime so it
// cannot fall into step with the subscriber queue's depth of 16.
type timedReceiver struct {
	rx      aircast.Receiver
	sampled time.Duration // time inside the timed calls
	timed   int64         // calls timed
	n       int64         // datagrams received
}

const recvSample = 7

func (r *timedReceiver) Recv() ([]byte, bool) {
	if r.n%recvSample != 0 {
		f, ok := r.rx.Recv()
		if ok {
			r.n++
		}
		return f, ok
	}
	t0 := now()
	f, ok := r.rx.Recv()
	r.sampled += now().Sub(t0)
	r.timed++
	if ok {
		r.n++
	}
	return f, ok
}

func (r *timedReceiver) Close() error { return r.rx.Close() }

// take returns the estimated time inside Recv and the datagrams received
// since the last take.
func (r *timedReceiver) take() (time.Duration, int64) {
	var est time.Duration
	if r.timed > 0 {
		est = time.Duration(float64(r.sampled) * float64(r.n) / float64(r.timed))
	}
	n := r.n
	r.sampled, r.timed, r.n = 0, 0, 0
	return est, n
}

// verify checks every key of the last pass: no error, found, and, when
// the request saw no restart of either kind, the same accounting as
// access.Walk over the same cycle from the first bucket the session fed.
// Each scheme's swaps count as one more check.
func (l *liveWorkload) verify() {
	for si, st := range l.stations {
		for _, outs := range l.outs[si] {
			for _, o := range outs {
				l.checks.check(o.err == nil && o.res.Found && matchesWalk(st, o))
			}
			l.checks.attempted += int64(l.keys - len(outs)) // keys a broken session never tried
			l.checks.failed += int64(l.keys - len(outs))
		}
		l.checks.check(l.swapOK[si])
	}
}

// matchesWalk is the aircast e2e suite's prediction rule: a request with
// no restarts must equal access.Walk of the same airborne client, arriving
// at the in-cycle start of the first bucket the session fed.
func matchesWalk(st *station, o liveOut) bool {
	if o.res.Restarts != 0 || o.res.EpochRestarts != 0 {
		return true
	}
	pred, err := predict(st, o.key, o.res.FirstBucket)
	return err == nil && pred == o.res.Result
}

func predict(st *station, key uint64, first units.BucketIndex) (access.Result, error) {
	ch := st.bc.Channel()
	if !first.InCycle(ch.NumBuckets()) {
		return access.Result{}, fmt.Errorf("bad first bucket %d", first)
	}
	cl, err := airborne.NewClient(st.prog.Scheme, st.bytes, st.prog.Contract, key)
	if err != nil {
		return access.Result{}, err
	}
	return access.Walk(ch, cl, ch.StartInCycle(first).At(0), 0)
}

func (l *liveWorkload) tally() tally { return l.checks }

func (l *liveWorkload) probeCases() []core.Config {
	cfgs := make([]core.Config, len(l.stations))
	for i, st := range l.stations {
		cfgs[i] = st.cfg
	}
	return cfgs
}
