package daemon

import (
	"crypto/tls"
	"errors"
	"fmt"
	"sync"
	"time"

	"seccloud/internal/netsim"
	"seccloud/internal/obs"
)

// Transport abstracts "dial an audit target": the agency's audit code
// runs unchanged whether the target is an in-process handler (the test
// harness) or a real daemon socket. Dial returns a ready netsim.Client;
// Close releases every client the transport handed out.
type Transport interface {
	Dial(addr string) (netsim.Client, error)
	Close() error
}

// SimTransport serves registered handlers in-process over netsim
// loopbacks — the simulator kept as a test harness behind the daemon's
// interface.
type SimTransport struct {
	mu       sync.Mutex
	handlers map[string]netsim.Handler
	clients  []netsim.Client
}

var _ Transport = (*SimTransport)(nil)

// NewSimTransport builds an empty in-process transport.
func NewSimTransport() *SimTransport {
	return &SimTransport{handlers: make(map[string]netsim.Handler)}
}

// Register binds addr to a handler; Dial(addr) loops back to it.
func (t *SimTransport) Register(addr string, h netsim.Handler) {
	t.mu.Lock()
	t.handlers[addr] = h
	t.mu.Unlock()
}

// Dial returns a loopback client to the registered handler.
func (t *SimTransport) Dial(addr string) (netsim.Client, error) {
	t.mu.Lock()
	h, ok := t.handlers[addr]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("daemon: no handler registered for %q", addr)
	}
	client := netsim.NewLoopback(h, netsim.LinkConfig{})
	t.mu.Lock()
	t.clients = append(t.clients, client)
	t.mu.Unlock()
	return client, nil
}

// Close closes every dialed client.
func (t *SimTransport) Close() error {
	t.mu.Lock()
	clients := t.clients
	t.clients = nil
	t.mu.Unlock()
	for _, c := range clients {
		_ = c.Close()
	}
	return nil
}

// TCPTransportConfig shapes every client a TCPTransport dials.
type TCPTransportConfig struct {
	// TLS dials mutual TLS when set (use LoadClientTLS).
	TLS *tls.Config
	// DialTimeout bounds each remote's pool dials (see PoolConfig).
	DialTimeout time.Duration
	// Timeout bounds each round trip without a ctx deadline.
	Timeout time.Duration
	// RTT, when > 0, adds simulated symmetric latency on top of the real
	// socket (LatentClient) — how benches model a WAN on localhost.
	RTT time.Duration
	// Obs instruments pools and clients.
	Obs *obs.Hub
}

// TCPTransport dials pooled real-socket clients to daemon servers. One
// pool+client pair is cached per remote address for the transport's
// lifetime: re-dialing an addr (the auditor dials every server on every
// sweep) returns the cached client, so conns are reused across sweeps
// and the fd/pool footprint stays bounded by the number of distinct
// remotes rather than the number of dials.
type TCPTransport struct {
	cfg TCPTransportConfig

	mu      sync.Mutex
	clients map[string]netsim.Client
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport builds a transport; conns are dialed lazily per
// round trip through each remote's pool.
func NewTCPTransport(cfg TCPTransportConfig) *TCPTransport {
	return &TCPTransport{cfg: cfg, clients: make(map[string]netsim.Client)}
}

// Dial returns the pooled client for addr, building it on first use.
// The transport owns the client: callers must not Close it, and repeat
// dials of the same addr share its pool.
func (t *TCPTransport) Dial(addr string) (netsim.Client, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.clients == nil {
		return nil, errors.New("daemon: transport closed")
	}
	if client, ok := t.clients[addr]; ok {
		return client, nil
	}
	pool := NewPool(PoolConfig{
		Addr:        addr,
		DialTimeout: t.cfg.DialTimeout,
		TLS:         t.cfg.TLS,
	})
	var client netsim.Client = NewClient(pool, ClientConfig{
		Timeout: t.cfg.Timeout,
		Obs:     t.cfg.Obs,
	})
	if t.cfg.RTT > 0 {
		client = netsim.NewLatentClient(client, t.cfg.RTT)
	}
	t.clients[addr] = client
	return client, nil
}

// Close closes every cached client (and so every pool).
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	clients := t.clients
	t.clients = nil
	t.mu.Unlock()
	for _, c := range clients {
		_ = c.Close()
	}
	return nil
}
