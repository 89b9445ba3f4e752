package aircast_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/airborne"
	"github.com/airindex/airindex/internal/aircast"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/units"
)

var paperSchemes = []string{"flat", "(1,m)", "distributed", "hashing", "signature"}

// buildHarness constructs one scheme's broadcast plus the aircast
// program a network client would be handed out of band.
func buildHarness(t testing.TB, scheme string, records int, seed int64) (access.Broadcast, *datagen.Dataset, aircast.Program) {
	t.Helper()
	cfg := core.DefaultConfig(scheme, records)
	cfg.Data.Seed = seed
	ds, err := datagen.Generate(cfg.Data)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := core.BuildBroadcast(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bc, ds, aircast.Program{Scheme: scheme, Contract: airborne.ContractFor(cfg.Data, bc)}
}

// predict replays the request in the byte-clock simulator: the same
// airborne client walked by access.Walk, arriving at the in-cycle start
// of the first bucket the live session fed. Every airborne protocol is
// shift-invariant (all decisions are offsets from bucket end times), so
// on a lossless transport the live accounting must equal this bit for
// bit.
func predict(bc access.Broadcast, prog aircast.Program, key uint64, first units.BucketIndex) (access.Result, error) {
	ch := bc.Channel()
	if !first.InCycle(ch.NumBuckets()) {
		return access.Result{}, fmt.Errorf("predict: bad first bucket %d", first)
	}
	cl, err := airborne.NewClient(prog.Scheme, airborne.NewBytes(ch), prog.Contract, key)
	if err != nil {
		return access.Result{}, err
	}
	return access.Walk(ch, cl, ch.StartInCycle(first).At(0), 0)
}

// TestE2EInmemExactAcrossSchemes is the tentpole's measurement claim: N
// concurrent network clients per scheme resolve keys over the live
// in-process transport and their measured access/tuning byte counters
// are bit-identical to the simulator's predictions.
func TestE2EInmemExactAcrossSchemes(t *testing.T) {
	for _, scheme := range paperSchemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			bc, ds, prog := buildHarness(t, scheme, 300, 1)
			img, err := aircast.BuildImage(1, prog, bc.Channel())
			if err != nil {
				t.Fatal(err)
			}
			srv, err := aircast.NewServer(aircast.Config{}, img)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			defer srv.Stop()
			prog = srv.Program()

			const clients = 8
			errs := make(chan error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rx, err := aircast.Dial(aircast.TransportInmem, srv)
					if err != nil {
						errs <- err
						return
					}
					sess := aircast.NewSession(rx, prog)
					defer sess.Close()
					for q := 0; q < 4; q++ {
						var key uint64
						if (c+q)%4 == 3 {
							key = ds.MissingKeyNear((c*7 + q) % ds.Len())
						} else {
							key = ds.KeyAt((c*31 + q*13) % ds.Len())
						}
						res, err := sess.ResolveKey(key)
						if err != nil {
							errs <- fmt.Errorf("client %d key %d: %v", c, key, err)
							return
						}
						if res.Restarts != 0 || res.EpochRestarts != 0 || res.Unrecovered {
							errs <- fmt.Errorf("client %d key %d: lossless transport reported recovery: %+v", c, key, res)
							return
						}
						pred, err := predict(bc, prog, key, res.FirstBucket)
						if err != nil {
							errs <- err
							return
						}
						if res.Result != pred {
							errs <- fmt.Errorf("client %d key %d first bucket %d: live %+v != simulator %+v",
								c, key, res.FirstBucket, res.Result, pred)
							return
						}
						if res.Found != bc.Contains(key) {
							errs <- fmt.Errorf("client %d key %d: found %v, ground truth %v", c, key, res.Found, bc.Contains(key))
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			m := srv.Metrics()
			if m.Datagrams.Load() == 0 || m.Cycles.Load() == 0 {
				t.Fatalf("daemon served nothing: datagrams %d cycles %d", m.Datagrams.Load(), m.Cycles.Load())
			}
			if m.SlowReaderDrops.Load() != 0 {
				t.Fatalf("lossless transport dropped %d datagrams", m.SlowReaderDrops.Load())
			}
		})
	}
}

// TestE2EGracefulReconfig swaps the broadcast image mid-run: a request
// in flight across the cycle boundary observes the epoch bump and
// restarts cleanly, and requests after the swap resolve the new image's
// keys bit-exact against its simulator.
func TestE2EGracefulReconfig(t *testing.T) {
	bcA, dsA, prog := buildHarness(t, "flat", 400, 1)
	bcB, dsB, progB := buildHarness(t, "flat", 400, 2)
	if bcA.Channel().CycleLen() != bcB.Channel().CycleLen() {
		t.Fatal("flat images with identical geometry expected")
	}
	imgA, err := aircast.BuildImage(1, prog, bcA.Channel())
	if err != nil {
		t.Fatal(err)
	}
	imgB, err := aircast.BuildImage(2, progB, bcB.Channel())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := aircast.NewServer(aircast.Config{}, imgA)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	prog = srv.Program()

	rx, err := aircast.Dial(aircast.TransportInmem, srv)
	if err != nil {
		t.Fatal(err)
	}
	sess := aircast.NewSession(rx, prog)
	defer sess.Close()

	// Anchor mid-cycle on the old image: a key deep in the cycle leaves
	// the session hundreds of buckets from the next boundary, and the
	// blocking transport keeps the server within a few frames of us.
	keyA := dsA.KeyAt(200)
	res, err := sess.ResolveKey(keyA)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.EpochRestarts != 0 {
		t.Fatalf("pre-swap resolve: %+v", res)
	}

	// Queue the swap; it takes effect at the next cycle boundary. A key
	// present in neither image forces a full-cycle scan that must cross
	// that boundary, so the request observes the reconfiguration.
	if err := srv.Swap(imgA); err == nil {
		t.Fatal("swap without an epoch bump accepted")
	}
	if err := srv.Swap(imgB); err != nil {
		t.Fatal(err)
	}
	missing := dsA.MissingKeyNear(3)
	for i := 4; bcB.Contains(missing) && i < dsA.Len(); i++ {
		missing = dsA.MissingKeyNear(i)
	}
	res, err = sess.ResolveKey(missing)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatalf("key %d in neither image reported found", missing)
	}
	if res.EpochRestarts == 0 {
		t.Fatalf("in-flight request did not observe the reconfiguration: %+v", res)
	}

	// The new image is now on the air: its keys resolve bit-exact
	// against its own simulator, and old-image-only keys are gone.
	checked := false
	for i := 0; i < dsB.Len(); i++ {
		key := dsB.KeyAt(i)
		if bcA.Contains(key) {
			continue
		}
		res, err := sess.ResolveKey(key)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.EpochRestarts != 0 {
			t.Fatalf("post-swap resolve of new key %d: %+v", key, res)
		}
		pred, err := predict(bcB, prog, key, res.FirstBucket)
		if err != nil {
			t.Fatal(err)
		}
		if res.Result != pred {
			t.Fatalf("post-swap key %d: live %+v != simulator %+v", key, res.Result, pred)
		}
		checked = true
		break
	}
	if !checked {
		t.Fatal("no key unique to the new image")
	}
	for i := 0; i < dsA.Len(); i++ {
		key := dsA.KeyAt(i)
		if bcB.Contains(key) {
			continue
		}
		res, err := sess.ResolveKey(key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatalf("old-image key %d still found after swap", key)
		}
		break
	}

	m := srv.Metrics()
	if m.Reconfigs.Load() != 1 {
		t.Fatalf("reconfigs = %d, want 1", m.Reconfigs.Load())
	}
	if m.Epoch.Load() != 2 {
		t.Fatalf("epoch gauge = %d, want 2", m.Epoch.Load())
	}
}

// TestE2ETCPCatchup rides the length-prefixed TCP fallback. The stream
// is paced well under loopback TCP throughput, so no queue drops are
// expected and the accounting stays bit-exact.
func TestE2ETCPCatchup(t *testing.T) {
	bc, ds, prog := buildHarness(t, "hashing", 200, 1)
	img, err := aircast.BuildImage(1, prog, bc.Channel())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := aircast.NewServer(aircast.Config{TCPAddr: "127.0.0.1:0", BytesPerSec: 8 << 20}, img)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	prog = srv.Program()

	rx, err := aircast.Dial(aircast.TransportTCP, srv)
	if err != nil {
		t.Fatal(err)
	}
	sess := aircast.NewSession(rx, prog)
	sess.Policy = access.RecoverPolicy{MaxRetries: 64}
	defer sess.Close()
	for q := 0; q < 3; q++ {
		key := ds.KeyAt((q * 17) % ds.Len())
		res, err := sess.ResolveKey(key)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("key %d not found over TCP: %+v", key, res)
		}
		if res.Restarts == 0 {
			pred, err := predict(bc, prog, key, res.FirstBucket)
			if err != nil {
				t.Fatal(err)
			}
			if res.Result != pred {
				t.Fatalf("key %d: live %+v != simulator %+v", key, res.Result, pred)
			}
		}
	}
	if got := srv.Metrics().ActiveReaders.Load(); got != 1 {
		t.Fatalf("active readers = %d, want 1", got)
	}
}

// TestMetricsAndHealth scrapes the HTTP endpoints while the daemon
// serves.
func TestMetricsAndHealth(t *testing.T) {
	bc, _, prog := buildHarness(t, "flat", 50, 1)
	img, err := aircast.BuildImage(1, prog, bc.Channel())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := aircast.NewServer(aircast.Config{HTTPAddr: "127.0.0.1:0"}, img)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()

	// Consume a few frames so the counters move.
	rx, err := aircast.Dial(aircast.TransportInmem, srv)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok := rx.Recv(); !ok {
			t.Fatal("stream ended early")
		}
	}
	if err := rx.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"aircast_epoch 1",
		"aircast_cycles_total",
		"aircast_datagrams_sent_total",
		"aircast_active_readers",
		"aircast_slow_reader_drops_total",
		"aircast_reconfigs_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	resp, err = http.Get("http://" + srv.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(health), "ok") {
		t.Fatalf("/healthz status %d body %q", resp.StatusCode, health)
	}
}
