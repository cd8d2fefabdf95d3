// Package daemon promotes the SecCloud protocols out of the in-process
// simulator onto production transport: a long-running cloud-server daemon
// (cmd/seccloudd) and a designated-agency daemon (cmd/seccloud-agencyd)
// speaking a versioned, negotiated, length-prefixed wire protocol over
// real TCP with optional mutual TLS.
//
// The layer split mirrors drand's daemon/control-plane design:
//
//   - Server accepts public-socket connections, runs the mandatory SECW
//     version handshake (a peer that opens with anything else is
//     refused), authenticates peers by TLS SAN → registered principal,
//     applies netsim.Admission backpressure per request, and serves the
//     same netsim.Handler the simulator serves — always through a
//     netsim.SwappableHandler slot, so chaos schedules can kill and
//     revive a real-socket server exactly like a simulated one.
//   - Pool + Client give the agency side bounded, health-checked
//     connection reuse (a fleet's breakers wrap the Client, see
//     core.NewFleet); concurrent round trips run on separate pooled
//     conns, which is what lets streamed challenge rounds overlap on a
//     real link (a single TCP conn serializes).
//   - Transport abstracts "dial an audit target": SimTransport serves
//     handlers in-process (the test harness), TCPTransport dials pooled
//     real sockets. Audit code runs unchanged against either.
//
// Server and Pool/Client are the tree's only socket server and client:
// the seccloud facade's ServeTCP/DialTCP, both daemons and the benchmark
// all run on them.
//
// Lifecycle: every daemon loads a JSON config file overridden by flags,
// exposes the obs admin hub (/healthz, /metrics, /traces, pprof), and
// drains gracefully on SIGTERM — in-flight audits finish on their
// grandfathered conns while new work is refused with the typed overload
// frame.
package daemon

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// FileConfig is the on-disk daemon configuration (JSON). Flags override
// any field; the zero value is fully usable for a plaintext localhost
// daemon.
type FileConfig struct {
	// Listen is the public protocol socket address.
	Listen string `json:"listen"`
	// Admin is the observability hub address ("" disables it).
	Admin string `json:"admin"`
	// Params names the pairing parameter set ("test256", "ss512").
	Params string `json:"params"`
	// Seed derives the demo identity universe shared by both daemons.
	Seed int64 `json:"seed"`
	// Blocks and BlockSize shape the seeded demo dataset.
	Blocks    int `json:"blocks"`
	BlockSize int `json:"block_size"`
	// TLSCert/TLSKey/TLSCA are PEM paths; all empty means plaintext.
	TLSCert string `json:"tls_cert"`
	TLSKey  string `json:"tls_key"`
	TLSCA   string `json:"tls_ca"`
	// MTLS requires and verifies client certificates.
	MTLS bool `json:"mtls"`
	// Identities maps TLS SAN names to registered principal IDs.
	Identities map[string]string `json:"identities"`
	// MaxConns caps concurrently served connections (0 = unlimited).
	MaxConns int `json:"max_conns"`
	// MaxInflight/MaxQueue shape the admission gate (0 inflight = no gate).
	MaxInflight int `json:"max_inflight"`
	MaxQueue    int `json:"max_queue"`
	// RetryAfterMillis is the backoff hint attached to sheds.
	RetryAfterMillis int64 `json:"retry_after_millis"`
	// ReadTimeoutMillis / WriteTimeoutMillis bound socket operations.
	ReadTimeoutMillis  int64 `json:"read_timeout_millis"`
	WriteTimeoutMillis int64 `json:"write_timeout_millis"`
	// DrainIdleMillis is how long an idle conn survives once draining.
	DrainIdleMillis int64 `json:"drain_idle_millis"`
}

// LoadFileConfig reads a JSON config file. A missing path ("") returns
// the zero config.
func LoadFileConfig(path string) (FileConfig, error) {
	var cfg FileConfig
	if path == "" {
		return cfg, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return cfg, fmt.Errorf("daemon: reading config %s: %w", path, err)
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		return cfg, fmt.Errorf("daemon: parsing config %s: %w", path, err)
	}
	return cfg, nil
}

// Millis converts a millisecond count to a duration, with 0 mapping to
// the given default.
func Millis(ms int64, def time.Duration) time.Duration {
	if ms == 0 {
		return def
	}
	return time.Duration(ms) * time.Millisecond
}
