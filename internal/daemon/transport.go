package daemon

import (
	"crypto/tls"
	"errors"
	"sync"
	"time"

	"seccloud/internal/obs"
	"seccloud/internal/transport"
)

// Transport abstracts "dial an audit target": the agency's audit code
// runs unchanged whether the target is an in-process handler (the test
// harness) or a real daemon socket. Dial returns a ready transport.Client;
// Close releases every client the transport handed out.
type Transport interface {
	Dial(addr string) (transport.Client, error)
	Close() error
}

// TCPTransportConfig shapes every client a TCPTransport dials.
type TCPTransportConfig struct {
	// TLS dials mutual TLS when set (use LoadClientTLS).
	TLS *tls.Config
	// DialTimeout bounds each remote's pool dials (see PoolConfig).
	DialTimeout time.Duration
	// Timeout bounds each round trip without a ctx deadline.
	Timeout time.Duration
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
	clients map[string]*Client
}

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport builds a transport; conns are dialed lazily per
// round trip through each remote's pool.
func NewTCPTransport(cfg TCPTransportConfig) *TCPTransport {
	return &TCPTransport{cfg: cfg, clients: make(map[string]*Client)}
}

// Dial returns the pooled client for addr, building it on first use.
// The transport owns the client: callers must not Close it, and repeat
// dials of the same addr share its pool.
func (t *TCPTransport) Dial(addr string) (transport.Client, error) {
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
	client := NewClient(pool, ClientConfig{
		Timeout: t.cfg.Timeout,
		Obs:     t.cfg.Obs,
	})
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
