package daemon

import (
	"path/filepath"
	"testing"
	"time"

	"seccloud/internal/core"
)

// pkiDir generates a demo PKI in a temp dir and returns it.
func pkiDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := GeneratePKI(dir, nil, ""); err != nil {
		t.Fatalf("GeneratePKI: %v", err)
	}
	return dir
}

func serverTLSFrom(t *testing.T, dir string) *ServerConfig {
	t.Helper()
	tcfg, err := LoadServerTLS(
		filepath.Join(dir, PKIFiles.ServerCert),
		filepath.Join(dir, PKIFiles.ServerKey),
		filepath.Join(dir, PKIFiles.CA),
		true,
	)
	if err != nil {
		t.Fatalf("LoadServerTLS: %v", err)
	}
	return &ServerConfig{
		TLS:        tcfg,
		Identities: NewIdentityMap(map[string]string{DefaultAgencySAN: demoAgencyID}),
	}
}

func clientTLSFrom(t *testing.T, dir string) *TCPTransportConfig {
	t.Helper()
	tcfg, err := LoadClientTLS(
		filepath.Join(dir, PKIFiles.ClientCert),
		filepath.Join(dir, PKIFiles.ClientKey),
		filepath.Join(dir, PKIFiles.CA),
		"localhost",
	)
	if err != nil {
		t.Fatalf("LoadClientTLS: %v", err)
	}
	return &TCPTransportConfig{TLS: tcfg, Timeout: 10 * time.Second, DialTimeout: 5 * time.Second}
}

// TestMutualTLSEndToEnd runs a full storage audit through mutually
// authenticated TLS with SAN-pinned identity mapping.
func TestMutualTLSEndToEnd(t *testing.T) {
	dir := pkiDir(t)
	stc := serverTLSFrom(t, dir)

	u := newTestUniverse(t, 30)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), func(cfg *ServerConfig) {
		cfg.TLS = stc.TLS
		cfg.Identities = stc.Identities
	})

	tr := NewTCPTransport(*clientTLSFrom(t, dir))
	defer tr.Close()
	client, err := tr.Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	report := runAudit(t, u, client, 55, testAuditConfig(2))
	if !report.Valid() || falseFlags(report) != 0 {
		t.Fatalf("mTLS audit: valid=%t flags=%d", report.Valid(), falseFlags(report))
	}
	// Valid alone would also hold if every round were lost at the
	// handshake; a registered principal must be audited in full.
	if report.EffectiveSampleSize != testSample {
		t.Fatalf("mTLS audit covered %d of %d positions", report.EffectiveSampleSize, testSample)
	}
}

// TestMTLSRejectsUnknownPrincipal: a peer whose cert chains to the CA but
// whose SAN is not registered is dropped before any protocol bytes flow.
func TestMTLSRejectsUnknownPrincipal(t *testing.T) {
	dir := pkiDir(t)
	stc := serverTLSFrom(t, dir)

	u := newTestUniverse(t, 31)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), func(cfg *ServerConfig) {
		cfg.TLS = stc.TLS
		// Only a SAN the generated client cert does not carry.
		cfg.Identities = NewIdentityMap(map[string]string{"other.seccloud.local": "da:other"})
	})

	tr := NewTCPTransport(*clientTLSFrom(t, dir))
	defer tr.Close()
	client, err := tr.Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	// The refusal is a transport fault: every round is lost, nothing is
	// learned, and — the invariant — nothing is accused.
	report := runAudit(t, u, client, 1, testAuditConfig(1))
	if report.EffectiveSampleSize != 0 {
		t.Fatalf("unregistered principal still audited %d positions", report.EffectiveSampleSize)
	}
	if falseFlags(report) != 0 {
		t.Fatalf("identity refusal produced %d accusatory rounds", falseFlags(report))
	}
}

// TestMTLSRejectsWrongCA: a client credentialed by a different CA fails
// the TLS handshake outright.
func TestMTLSRejectsWrongCA(t *testing.T) {
	serverDir := pkiDir(t)
	clientDir := pkiDir(t) // independent CA
	stc := serverTLSFrom(t, serverDir)

	u := newTestUniverse(t, 32)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), func(cfg *ServerConfig) {
		cfg.TLS = stc.TLS
		cfg.Identities = stc.Identities
	})

	// Client trusts the server's CA (so the server cert verifies) but
	// presents a cert from the other CA.
	ccfg, err := LoadClientTLS(
		filepath.Join(clientDir, PKIFiles.ClientCert),
		filepath.Join(clientDir, PKIFiles.ClientKey),
		filepath.Join(serverDir, PKIFiles.CA),
		"localhost",
	)
	if err != nil {
		t.Fatalf("LoadClientTLS: %v", err)
	}
	tr := NewTCPTransport(TCPTransportConfig{TLS: ccfg, Timeout: 5 * time.Second, DialTimeout: 5 * time.Second})
	defer tr.Close()
	client, err := tr.Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	report := runAudit(t, u, client, 1, testAuditConfig(1))
	if report.EffectiveSampleSize != 0 {
		t.Fatalf("wrong-CA client still audited %d positions", report.EffectiveSampleSize)
	}
	if falseFlags(report) != 0 {
		t.Fatalf("TLS refusal produced %d accusatory rounds", falseFlags(report))
	}
}
