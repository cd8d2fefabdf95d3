// Command seccloudd is the SecCloud cloud-server daemon: it seeds the
// demo dataset for the shared identity universe and serves storage and
// computation audits on a real TCP (optionally mutual-TLS) socket,
// speaking the versioned SECW wire protocol (every conn opens with the
// hello; a peer sending bare frames is refused).
//
// Usage:
//
//	seccloudd                                   # plaintext on 127.0.0.1:7700
//	seccloudd -listen 127.0.0.1:0               # ephemeral port (printed)
//	seccloudd -config seccloudd.json            # file config, flags override
//	seccloudd -init-pki ./pki                   # write a demo CA + certs, then exit
//	seccloudd -tls-cert pki/server.pem -tls-key pki/server-key.pem \
//	          -tls-ca pki/ca.pem -mtls          # mutual TLS
//	seccloudd -max-inflight 8 -max-queue 16     # admission backpressure
//	seccloudd -admin 127.0.0.1:7701             # /metrics, /traces, /healthz, pprof
//
// SIGINT/SIGTERM drain gracefully: in-flight audits finish on their
// grandfathered conns, new dials are refused with the typed overload
// frame, and "drain complete" is printed on a clean exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/daemon"
	"seccloud/internal/obs"
	"seccloud/internal/pairing"
	"seccloud/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "seccloudd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		configPath = flag.String("config", "", "JSON config file (flags override)")
		listen     = flag.String("listen", "", "public protocol socket (default 127.0.0.1:7700)")
		admin      = flag.String("admin", "", "observability hub address (empty = off)")
		params     = flag.String("params", "", "pairing parameters: test256|ss512 (default test256)")
		seed       = flag.Int64("seed", 0, "identity-universe seed shared with seccloud-agencyd (default 1)")
		blocks     = flag.Int("blocks", 0, "demo dataset size in blocks (default 64)")
		blockSize  = flag.Int("block-size", 0, "demo dataset block size in bytes (default 256)")
		tlsCert    = flag.String("tls-cert", "", "server certificate PEM")
		tlsKey     = flag.String("tls-key", "", "server key PEM")
		tlsCA      = flag.String("tls-ca", "", "CA bundle PEM")
		mtls       = flag.Bool("mtls", false, "require and verify client certificates")
		initPKI    = flag.String("init-pki", "", "write a demo PKI into this directory and exit")
		maxConns   = flag.Int("max-conns", 0, "cap concurrently served conns (0 = unlimited)")
		inflight   = flag.Int("max-inflight", 0, "admission gate inflight slots (0 = no gate)")
		queue      = flag.Int("max-queue", 0, "admission gate queue depth")
		retryAfter = flag.Duration("retry-after", 0, "backoff hint attached to sheds")
		readTO     = flag.Duration("read-timeout", 0, "socket read timeout")
		writeTO    = flag.Duration("write-timeout", 0, "socket write timeout")
		drainIdle  = flag.Duration("drain-idle", 0, "idle grace per conn while draining")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "max graceful drain time before hard close")
	)
	flag.Parse()

	if *initPKI != "" {
		if err := daemon.GeneratePKI(*initPKI, nil, ""); err != nil {
			return err
		}
		fmt.Printf("seccloudd: wrote demo PKI (CA, server, client certs) to %s\n", *initPKI)
		return nil
	}

	cfg, err := daemon.LoadFileConfig(*configPath)
	if err != nil {
		return err
	}
	// Flags override file config; built-in defaults fill the rest.
	pickStr := func(flagVal, fileVal, def string) string {
		if flagVal != "" {
			return flagVal
		}
		if fileVal != "" {
			return fileVal
		}
		return def
	}
	pickInt := func(flagVal, fileVal, def int) int {
		if flagVal != 0 {
			return flagVal
		}
		if fileVal != 0 {
			return fileVal
		}
		return def
	}
	listenAddr := pickStr(*listen, cfg.Listen, "127.0.0.1:7700")
	adminAddr := pickStr(*admin, cfg.Admin, "")
	paramName := pickStr(*params, cfg.Params, "test256")
	useSeed := cfg.Seed
	if *seed != 0 {
		useSeed = *seed
	}
	if useSeed == 0 {
		useSeed = 1
	}
	nBlocks := pickInt(*blocks, cfg.Blocks, 64)
	nBlockSize := pickInt(*blockSize, cfg.BlockSize, 256)
	certFile := pickStr(*tlsCert, cfg.TLSCert, "")
	keyFile := pickStr(*tlsKey, cfg.TLSKey, "")
	caFile := pickStr(*tlsCA, cfg.TLSCA, "")
	useMTLS := *mtls || cfg.MTLS
	nMaxConns := pickInt(*maxConns, cfg.MaxConns, 0)
	nInflight := pickInt(*inflight, cfg.MaxInflight, 0)
	nQueue := pickInt(*queue, cfg.MaxQueue, 0)

	pp, err := pairing.ByName(paramName)
	if err != nil {
		return err
	}
	universe, err := daemon.NewUniverse(pp, useSeed)
	if err != nil {
		return err
	}
	server, err := universe.NewServer("0", core.ServerConfig{})
	if err != nil {
		return err
	}
	if err := universe.SeedDataset(server, "0", nBlocks, nBlockSize); err != nil {
		return err
	}
	fmt.Printf("seccloudd: universe seed %d (%s), serving cs:0 with %d x %dB blocks for %s (verifier %s)\n",
		useSeed, pp.Name(), nBlocks, nBlockSize, universe.User.ID(), universe.Agency.ID())

	var hub *obs.Hub
	if adminAddr != "" {
		hub = obs.NewHub()
		adminSrv, err := hub.ListenAndServe(adminAddr)
		if err != nil {
			return err
		}
		defer adminSrv.Close()
		fmt.Printf("seccloudd: admin hub on http://%s/metrics\n", adminSrv.Addr())
	}

	srvCfg := daemon.ServerConfig{
		Handler:      server,
		ReadTimeout:  pickDur(*readTO, cfg.ReadTimeoutMillis, 0),
		WriteTimeout: pickDur(*writeTO, cfg.WriteTimeoutMillis, 0),
		DrainIdle:    pickDur(*drainIdle, cfg.DrainIdleMillis, 0),
		MaxConns:     nMaxConns,
		Obs:          hub,
	}
	if nInflight > 0 {
		srvCfg.Admission = transport.NewAdmission(transport.AdmissionConfig{
			MaxInflight: nInflight,
			MaxQueue:    nQueue,
			RetryAfter:  pickDur(*retryAfter, cfg.RetryAfterMillis, 0),
		}).WithObs(hub, "daemon")
	}
	if certFile != "" || keyFile != "" {
		tcfg, err := daemon.LoadServerTLS(certFile, keyFile, caFile, useMTLS)
		if err != nil {
			return err
		}
		srvCfg.TLS = tcfg
		if useMTLS {
			identities := cfg.Identities
			if len(identities) == 0 {
				identities = map[string]string{daemon.DefaultAgencySAN: universe.Agency.ID()}
			}
			srvCfg.Identities = daemon.NewIdentityMap(identities)
			fmt.Printf("seccloudd: mTLS on, %d registered principal(s)\n", len(identities))
		}
	}

	s, err := daemon.Listen(listenAddr, srvCfg)
	if err != nil {
		return err
	}
	fmt.Printf("seccloudd: listening on %s\n", s.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("seccloudd: %s received, draining (max %v)\n", got, *drainTO)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Printf("seccloudd: drain complete (refused %d conn(s) while draining)\n", s.RefusedConns())
	return nil
}

// pickDur merges a duration flag over a millisecond file-config field.
func pickDur(flagVal time.Duration, fileMillis int64, def time.Duration) time.Duration {
	if flagVal != 0 {
		return flagVal
	}
	return daemon.Millis(fileMillis, def)
}
