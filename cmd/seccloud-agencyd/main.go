// Command seccloud-agencyd is the designated-agency daemon: it derives
// the same identity universe as seccloudd from the shared seed and drives
// scheduled storage audits over pooled TCP (optionally mutual-TLS)
// connections, streaming challenge rounds so WAN latency amortizes across
// the pipeline.
//
// Usage:
//
//	seccloud-agencyd -servers 127.0.0.1:7700                # audit forever
//	seccloud-agencyd -servers 127.0.0.1:7700 -audits 3      # three sweeps, then exit
//	seccloud-agencyd -servers a:7700,b:7700 -interval 30s   # a fleet on a schedule
//	seccloud-agencyd -stream 4                              # four challenge rounds in flight
//	seccloud-agencyd -tls-ca pki/ca.pem -tls-cert pki/client.pem \
//	                 -tls-key pki/client-key.pem            # mutual TLS
//
// Every audit prints its verdict including "false flags: N" — the
// invariant being N = 0 against honest servers no matter what the
// transport does. SIGINT/SIGTERM drain gracefully: the in-flight sweep
// finishes, no new sweep starts, and "drain complete" is printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"seccloud/internal/daemon"
	"seccloud/internal/obs"
	"seccloud/internal/pairing"
	"seccloud/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "seccloud-agencyd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		servers    = flag.String("servers", "127.0.0.1:7700", "comma-separated audit target addresses")
		audits     = flag.Int("audits", 0, "number of sweeps to run (0 = until signaled)")
		interval   = flag.Duration("interval", 10*time.Second, "pause between scheduled sweeps")
		params     = flag.String("params", "test256", "pairing parameters: test256|ss512")
		seed       = flag.Int64("seed", 1, "identity-universe seed shared with seccloudd")
		dataset    = flag.Int("dataset", 64, "audited dataset size in blocks (must match seccloudd -blocks)")
		sample     = flag.Int("sample", 16, "audit sample size t")
		rounds     = flag.Int("rounds", 8, "challenge rounds per audit")
		stream     = flag.Int("stream", 4, "streamed round concurrency (1 = sequential)")
		roundTO    = flag.Duration("round-timeout", 10*time.Second, "per-round-trip deadline")
		deadline   = flag.Duration("deadline", 2*time.Minute, "per-audit deadline")
		retries    = flag.Int("retries", 4, "max attempts per transport-failed round (1 = no retry)")
		timeout    = flag.Duration("timeout", 30*time.Second, "round-trip timeout without a deadline")
		tlsCert    = flag.String("tls-cert", "", "client certificate PEM")
		tlsKey     = flag.String("tls-key", "", "client key PEM")
		tlsCA      = flag.String("tls-ca", "", "CA bundle PEM (enables TLS)")
		serverName = flag.String("server-name", "localhost", "expected TLS server name")
		admin      = flag.String("admin", "", "observability hub address (empty = off)")
	)
	flag.Parse()

	targets := strings.Split(*servers, ",")
	for i := range targets {
		targets[i] = strings.TrimSpace(targets[i])
	}

	pp, err := pairing.ByName(*params)
	if err != nil {
		return err
	}
	universe, err := daemon.NewUniverse(pp, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("seccloud-agencyd: universe seed %d (%s), auditing %s for %s as %s\n",
		*seed, pp.Name(), strings.Join(targets, ", "), universe.User.ID(), universe.Agency.ID())

	var hub *obs.Hub
	if *admin != "" {
		hub = obs.NewHub()
		adminSrv, err := hub.ListenAndServe(*admin)
		if err != nil {
			return err
		}
		defer adminSrv.Close()
		fmt.Printf("seccloud-agencyd: admin hub on http://%s/metrics\n", adminSrv.Addr())
	}

	trCfg := daemon.TCPTransportConfig{
		Timeout:     *timeout,
		DialTimeout: 10 * time.Second,
		Obs:         hub,
	}
	if *tlsCA != "" {
		tcfg, err := daemon.LoadClientTLS(*tlsCert, *tlsKey, *tlsCA, *serverName)
		if err != nil {
			return err
		}
		trCfg.TLS = tcfg
	}
	tr := daemon.NewTCPTransport(trCfg)
	defer tr.Close()

	var retrier *transport.Retrier
	if *retries > 1 {
		retrier = transport.NewRetrier(*seed)
		retrier.MaxAttempts = *retries
	}
	auditor, err := daemon.NewAuditor(daemon.AuditorConfig{
		Universe:     universe,
		Transport:    tr,
		Servers:      targets,
		DatasetSize:  *dataset,
		SampleSize:   *sample,
		Rounds:       *rounds,
		Stream:       *stream,
		RoundTimeout: *roundTO,
		Deadline:     *deadline,
		Retry:        retrier,
		Interval:     *interval,
		Seed:         *seed,
		Obs:          hub,
	})
	if err != nil {
		return err
	}

	// A signal drains: the in-flight sweep finishes, Run returns nil.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	drained := make(chan struct{})
	var draining atomic.Bool
	go func() {
		got, ok := <-sig
		if !ok {
			return
		}
		draining.Store(true)
		fmt.Printf("seccloud-agencyd: %s received, draining\n", got)
		auditor.Drain()
		close(drained)
	}()

	bad := 0
	err = auditor.Run(context.Background(), *audits, func(out daemon.AuditOutcome) {
		if out.Err != nil {
			bad++
			fmt.Printf("audit sweep=%d server=%s error=%v elapsed=%s\n",
				out.Sweep, out.Server, out.Err, out.Elapsed.Round(time.Millisecond))
			return
		}
		if !out.Valid || out.FalseFlags != 0 {
			bad++
		}
		fmt.Printf("audit sweep=%d server=%s valid=%t false flags: %d shed=%d netfaults=%d elapsed=%s\n",
			out.Sweep, out.Server, out.Valid, out.FalseFlags, out.Shed, out.NetworkFaults,
			out.Elapsed.Round(time.Millisecond))
	})
	signal.Stop(sig)
	close(sig)
	if err != nil {
		return err
	}
	if draining.Load() {
		<-drained
		fmt.Println("seccloud-agencyd: drain complete")
	}
	if bad > 0 {
		return fmt.Errorf("%d audit(s) failed or flagged", bad)
	}
	fmt.Println("seccloud-agencyd: all audits clean")
	return nil
}
