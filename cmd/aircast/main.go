// Command aircast serves a broadcast program as a live datagram stream:
// the daemon builds one scheme's broadcast image, frames every bucket
// into a sequenced datagram (epoch + cycle offset + bucket index +
// CRC32C) and repeats the cycle at a configured bandwidth over UDP,
// with a length-prefixed TCP fallback for catch-up readers and
// Prometheus-style /metrics + /healthz endpoints.
//
// Examples:
//
//	aircast -scheme "(1,m)" -records 5000 -udp 239.1.2.3:9999
//	aircast -scheme flat -tcp 127.0.0.1:7447 -rate 1048576
//	aircast -demo                    # one reconfig cycle in-process
//	aircast -chaos-model drop -chaos-rate 0.05 -udp 127.0.0.1:9999
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/airborne"
	"github.com/airindex/airindex/internal/aircast"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/schemes/flat"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aircast:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aircast", flag.ContinueOnError)
	fs.SetOutput(out)
	scheme := fs.String("scheme", flat.Name, "broadcast scheme: "+strings.Join(airborne.Schemes(), ", "))
	records := fs.Int("records", 1000, "records in the broadcast image")
	seed := fs.Int64("seed", 1, "dataset seed; the image is a pure function of (scheme, records, seed)")
	rate := fs.Int64("rate", 1<<20, "broadcast bandwidth in bytes/sec (0 = unpaced)")
	udp := fs.String("udp", "", "UDP datagram target (unicast or multicast group); empty = no UDP leg")
	tcp := fs.String("tcp", "", "TCP catch-up listener address; empty = no TCP leg")
	httpAddr := fs.String("http", "", "metrics/health listener address; empty = no HTTP endpoints (-demo always serves them on an ephemeral port)")
	queue := fs.Int("queue", 0, "per-TCP-reader frame queue depth before slow-reader drops (0 = default)")
	chaosModel := fs.String("chaos-model", "none", "transport chaos proxy model at the datagram layer: none, iid, ge, drop")
	chaosRate := fs.Float64("chaos-rate", 0, "headline chaos rate [0,1): per-datagram loss (drop) or per-bit BER (iid, ge)")
	chaosSeed := fs.Int64("chaos-seed", 1, "chaos proxy seed; per-datagram fates replay exactly from it")
	transport := fs.String("transport", "inmem", "-demo client transport: inmem, udp, tcp")
	demo := fs.Bool("demo", false, "serve one reconfiguration cycle in-process: resolve keys, swap the image at the cycle boundary, scrape /metrics, exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}

	cfg := aircast.Config{
		BytesPerSec: *rate,
		UDPAddr:     *udp,
		TCPAddr:     *tcp,
		HTTPAddr:    *httpAddr,
		ReaderQueue: *queue,
	}
	model, err := faults.ParseModel(*chaosModel)
	if err != nil {
		return err
	}
	if model != faults.ModelNone {
		cfg.ChaosFaults = faults.FromRate(model, *chaosRate)
		cfg.ChaosSeed = *chaosSeed
	}

	if *demo {
		kind, err := aircast.ParseTransport(*transport)
		if err != nil {
			return err
		}
		return runDemo(out, cfg, kind, *scheme, *records, *seed)
	}
	return runDaemon(out, cfg, *scheme, *records, *seed)
}

// buildProgram constructs one scheme's broadcast and the program a
// network client would be handed out of band (mirrors the e2e harness).
func buildProgram(scheme string, records int, seed int64) (access.Broadcast, *datagen.Dataset, aircast.Program, error) {
	cfg := core.DefaultConfig(scheme, records)
	cfg.Data.Seed = seed
	ds, err := datagen.Generate(cfg.Data)
	if err != nil {
		return nil, nil, aircast.Program{}, err
	}
	bc, err := core.BuildBroadcast(ds, cfg)
	if err != nil {
		return nil, nil, aircast.Program{}, err
	}
	return bc, ds, aircast.Program{Scheme: scheme, Contract: airborne.ContractFor(cfg.Data, bc)}, nil
}

// runDaemon serves until SIGINT/SIGTERM.
func runDaemon(out io.Writer, cfg aircast.Config, scheme string, records int, seed int64) error {
	bc, _, prog, err := buildProgram(scheme, records, seed)
	if err != nil {
		return err
	}
	img, err := aircast.BuildImage(1, prog, bc.Channel())
	if err != nil {
		return err
	}
	srv, err := aircast.NewServer(cfg, img)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Stop()
	prog = srv.Program()
	fmt.Fprintf(out, "aircast: serving %s, %d buckets, %d bytes/cycle, epoch 1\n",
		prog.Scheme, prog.NumBuckets, prog.CycleLen)
	if cfg.UDPAddr != "" {
		fmt.Fprintf(out, "aircast: udp datagrams -> %s\n", cfg.UDPAddr)
	}
	if addr := srv.TCPAddr(); addr != "" {
		fmt.Fprintf(out, "aircast: tcp catch-up on %s\n", addr)
	}
	if addr := srv.HTTPAddr(); addr != "" {
		fmt.Fprintf(out, "aircast: metrics on http://%s/metrics\n", addr)
	}

	sigs := make(chan os.Signal, 1) //airlint:allow confinement the daemon CLI's shutdown signal; no simulation state crosses it
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	select {
	case sig := <-sigs:
		fmt.Fprintf(out, "aircast: %v, stopping\n", sig)
	case <-srv.Done():
	}
	srv.Stop()
	m := srv.Metrics()
	fmt.Fprintf(out, "aircast: served %d cycles, %d datagrams, %d bytes\n",
		m.Cycles.Load(), m.Datagrams.Load(), m.BytesSent.Load())
	return nil
}

// runDemo exercises the full daemon surface in-process: a client
// resolves keys from the first image, the image is swapped at a cycle
// boundary (epoch 1 -> 2), an in-flight request observes the
// reconfiguration and recovers, and the run ends with a /metrics
// scrape.
func runDemo(out io.Writer, cfg aircast.Config, kind aircast.TransportKind, scheme string, records int, seed int64) error {
	bcA, dsA, prog, err := buildProgram(scheme, records, seed)
	if err != nil {
		return err
	}
	bcB, dsB, progB, err := buildProgram(scheme, records, seed+1)
	if err != nil {
		return err
	}
	// The demo client keeps its out-of-band program across the swap, so
	// both images must share the clock geometry it was handed (always
	// true for flat; index layouts can shift with the data).
	if bcA.Channel().CycleLen() != bcB.Channel().CycleLen() {
		return fmt.Errorf("demo needs images with identical cycle length; seeds %d and %d disagree for %s", seed, seed+1, scheme)
	}
	imgA, err := aircast.BuildImage(1, prog, bcA.Channel())
	if err != nil {
		return err
	}
	imgB, err := aircast.BuildImage(2, progB, bcB.Channel())
	if err != nil {
		return err
	}

	// The demo always serves metrics, on an ephemeral port so runs never
	// collide; a UDP demo listens first so the server has a target.
	cfg.HTTPAddr = "127.0.0.1:0"
	var udpRx *aircast.UDPReceiver
	if kind == aircast.TransportUDP && cfg.UDPAddr == "" {
		udpRx, err = aircast.ListenUDP("127.0.0.1:0")
		if err != nil {
			return err
		}
		cfg.UDPAddr = udpRx.Addr()
	}
	if kind == aircast.TransportTCP && cfg.TCPAddr == "" {
		cfg.TCPAddr = "127.0.0.1:0"
	}
	srv, err := aircast.NewServer(cfg, imgA)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Stop()
	prog = srv.Program()
	fmt.Fprintf(out, "aircast demo: %s over %s, %d buckets, %d bytes/cycle\n",
		prog.Scheme, kind, prog.NumBuckets, prog.CycleLen)

	var rx aircast.Receiver
	if udpRx != nil {
		rx = udpRx
	} else if rx, err = aircast.Dial(kind, srv); err != nil {
		return err
	}
	sess := aircast.NewSession(rx, prog)
	sess.Policy = access.RecoverPolicy{MaxRetries: 1000}
	defer sess.Close()

	resolve := func(label string, key uint64) (aircast.NetResult, error) {
		res, err := sess.ResolveKey(key)
		if err != nil {
			return res, err
		}
		fmt.Fprintf(out, "  %-10s key=%-12d found=%-5v access=%-6d tuning=%-5d restarts=%d epoch-restarts=%d\n",
			label, key, res.Found, res.Access, res.Tuning, res.Restarts, res.EpochRestarts)
		return res, nil
	}
	for i, q := range []int{0, dsA.Len() / 2, dsA.Len() - 1} {
		if _, err := resolve(fmt.Sprintf("epoch1[%d]", i), dsA.KeyAt(q)); err != nil {
			return err
		}
	}

	if err := srv.Swap(imgB); err != nil {
		return err
	}
	fmt.Fprintln(out, "aircast demo: queued image swap (epoch 1 -> 2) for the next cycle boundary")
	// The swap lands at a cycle boundary; keep resolving old-image keys
	// until the transmitter reports the new epoch on the air (each
	// resolve consumes frames, so this also drives the blocking inmem
	// transport forward).
	for i := 0; srv.Metrics().Epoch.Load() < 2 && i < 8; i++ {
		if _, err := resolve(fmt.Sprintf("drain[%d]", i), dsA.KeyAt((i*37+11)%dsA.Len())); err != nil {
			return err
		}
	}
	for i, q := range []int{0, dsB.Len() / 2} {
		key := dsB.KeyAt(q)
		// A first attempt can still ride frames queued before the
		// boundary and conclude against the old image; any attempt that
		// reaches the new epoch's frames restarts and must find the key.
		for attempt := 0; ; attempt++ {
			res, err := resolve(fmt.Sprintf("epoch2[%d]", i), key)
			if err != nil {
				return err
			}
			if res.Found {
				break
			}
			if attempt == 3 {
				return fmt.Errorf("key %d not found on the new image after %d attempts", key, attempt+1)
			}
		}
	}

	resp, err := http.Get("http://" + srv.HTTPAddr() + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "aircast demo: /metrics")
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if !strings.HasPrefix(line, "#") {
			fmt.Fprintf(out, "  %s\n", line)
		}
	}
	return nil
}
