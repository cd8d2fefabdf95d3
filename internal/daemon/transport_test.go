package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/netsim"
	"seccloud/internal/transport"
	"seccloud/internal/wire"
)

// canonicalReport renders the transport-invariant verdict of a storage
// audit report: identity, validity, the sampled challenge set, each
// round's outcome and indices, and every attributed failure. Fields that
// legitimately vary with the transport — attempt counts, lost-round
// error text, replica routing, timings — are excluded, so the same
// seeded audit of the same universe must render byte-identically whether
// it ran over the in-process simulator or a real daemon socket.
func canonicalReport(r *core.AuditReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "user=%s valid=%t effective=%d planned=%d batched=%t\n",
		r.UserID, r.Valid(), r.EffectiveSampleSize, r.PlannedSampleSize, r.SigChecksBatched)
	fmt.Fprintf(&b, "sampled=%v\n", r.Sampled)
	for i, rr := range r.Rounds {
		fmt.Fprintf(&b, "round=%d outcome=%d completed=%t indices=%v\n",
			i, rr.Outcome, rr.Completed, rr.Indices)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "failure index=%d check=%d detail=%q\n", f.Index, f.Check, f.Detail)
	}
	return b.String()
}

// fingerprintReport hashes a report's canonical form. Equal fingerprints
// mean equal verdicts, block for block and round for round.
func fingerprintReport(r *core.AuditReport) string {
	sum := sha256.Sum256([]byte(canonicalReport(r)))
	return hex.EncodeToString(sum[:])
}

// simTransport serves registered handlers in-process over netsim
// loopbacks: the auditor's Transport with the simulator in place of a
// socket.
type simTransport map[string]transport.Handler

func (t simTransport) Dial(addr string) (transport.Client, error) {
	h, ok := t[addr]
	if !ok {
		return nil, fmt.Errorf("no handler registered for %q", addr)
	}
	return netsim.NewLoopback(h, netsim.LinkConfig{}), nil
}

func (simTransport) Close() error { return nil }

// buildTwinServers derives two byte-identical server instances from the
// same universe seed — one to stand behind the simulator, one behind a
// real daemon socket.
func buildTwinServers(t *testing.T, seed int64, policy func() core.CheatPolicy) (*Universe, *core.Server, *core.Server) {
	t.Helper()
	u := newTestUniverse(t, seed)
	var pa, pb core.CheatPolicy
	if policy != nil {
		pa, pb = policy(), policy()
	}
	a := newSeededServer(t, u, "0", core.ServerConfig{Policy: pa})
	b := newSeededServer(t, u, "0", core.ServerConfig{Policy: pb})
	return u, a, b
}

// auditFingerprint runs one seeded audit over tr and fingerprints it.
func auditFingerprint(t *testing.T, u *Universe, tr Transport, addr string, auditSeed int64, stream int) string {
	t.Helper()
	client, err := tr.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	report := runAudit(t, u, client, auditSeed, testAuditConfig(stream))
	return fingerprintReport(report)
}

// TestTransportVerdictDeterminism is the acceptance invariant: the same
// epoch scenario (same universe seed, same audit seed) produces
// byte-identical verdicts whether the audit rides the in-process
// simulator or a real daemon TCP socket — honest and cheating servers
// alike.
func TestTransportVerdictDeterminism(t *testing.T) {
	cases := []struct {
		name      string
		policy    func() core.CheatPolicy
		wantValid bool
	}{
		{"honest", nil, true},
		// Seeded deletions: both twins delete the same blocks at
		// store-time, so both transports must attribute identical failures.
		{"storage-cheater", func() core.CheatPolicy {
			return &core.StorageCheater{KeepFraction: 0.6, Rng: rand.New(rand.NewSource(99))}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u, simSrv, tcpSrv := buildTwinServers(t, 40, tc.policy)

			sim := simTransport{"cs:0": simSrv}
			simFP := auditFingerprint(t, u, sim, "cs:0", 77, 2)

			s := startDaemon(t, tcpSrv, nil)
			tcp := NewTCPTransport(TCPTransportConfig{Timeout: 10 * time.Second})
			defer tcp.Close()
			tcpFP := auditFingerprint(t, u, tcp, s.Addr(), 77, 2)

			if simFP != tcpFP {
				t.Fatalf("verdict fingerprints diverge across transports:\nsim: %s\ntcp: %s", simFP, tcpFP)
			}

			// Cross-check the verdict itself via a fresh sim audit.
			client, err := sim.Dial("cs:0")
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			report := runAudit(t, u, client, 77, testAuditConfig(2))
			if report.Valid() != tc.wantValid {
				t.Fatalf("valid=%t, want %t", report.Valid(), tc.wantValid)
			}
		})
	}
}

// TestTCPTransportReusesPoolAcrossDials is the sweep-lifecycle
// regression: the auditor dials every server on every sweep, so Dial
// must hand back one cached per-addr client instead of minting a fresh
// pool per call — otherwise each sweep abandons a pool of open sockets
// (unbounded fd growth) and no conn ever survives to the next sweep.
func TestTCPTransportReusesPoolAcrossDials(t *testing.T) {
	u := newTestUniverse(t, 42)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)

	tr := NewTCPTransport(TCPTransportConfig{Timeout: 10 * time.Second})
	defer tr.Close()

	first, err := tr.Dial(s.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	const sweeps = 4
	for i := 0; i < sweeps; i++ {
		client, err := tr.Dial(s.Addr())
		if err != nil {
			t.Fatalf("sweep %d Dial: %v", i, err)
		}
		if client != first {
			t.Fatalf("sweep %d got a fresh client; want the cached per-addr client", i)
		}
		report := runAudit(t, u, client, int64(100+i), testAuditConfig(2))
		if !report.Valid() {
			t.Fatalf("sweep %d flagged an honest server", i)
		}
	}
	stats := first.(*Client).Pool().Stats()
	// Stream width 2 → at most 2 conns ever dialed; every later round
	// trip across all sweeps rides a pooled conn.
	if stats.Dials > 2 {
		t.Fatalf("%d sweeps dialed %d conns, want ≤2 (pooled reuse across sweeps)", sweeps+1, stats.Dials)
	}
	if stats.Reuses == 0 {
		t.Fatalf("no conn reuse across sweeps: %+v", stats)
	}
}

// TestTransportStreamInvariance: the verdict (not the timing) is also
// independent of the streaming width on the same transport.
func TestTransportStreamInvariance(t *testing.T) {
	u := newTestUniverse(t, 41)
	s := startDaemon(t, newSeededServer(t, u, "0", core.ServerConfig{}), nil)
	tcp := NewTCPTransport(TCPTransportConfig{Timeout: 10 * time.Second})
	defer tcp.Close()

	seq := auditFingerprint(t, u, tcp, s.Addr(), 13, 1)
	streamed := auditFingerprint(t, u, tcp, s.Addr(), 13, 4)
	if seq != streamed {
		t.Fatalf("verdict depends on stream width:\nseq:      %s\nstreamed: %s", seq, streamed)
	}
}

// inflightCounter wraps a handler and records the most storage-audit
// challenges it ever held at once. Each challenge is held for hold, so
// rounds the agency sent together overlap at the server even though
// answering one takes well under a millisecond.
type inflightCounter struct {
	next      transport.Handler
	hold      time.Duration
	now, peak atomic.Int64
}

func (h *inflightCounter) Handle(m wire.Message) wire.Message {
	if _, ok := m.(*wire.StorageAuditRequest); !ok {
		return h.next.Handle(m)
	}
	n := h.now.Add(1)
	defer h.now.Add(-1)
	for p := h.peak.Load(); n > p; p = h.peak.Load() {
		if h.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(h.hold)
	return h.next.Handle(m)
}

// TestStreamedRoundsOverlapRTT: with Workers > 1 the agency keeps several
// challenge rounds in flight over pooled daemon conns, so at a 100 ms RTT
// a streamed audit overlaps the round trips a sequential one pays one
// after another — and reaches the same verdict.
func TestStreamedRoundsOverlapRTT(t *testing.T) {
	u := newTestUniverse(t, 43)
	h := &inflightCounter{next: newSeededServer(t, u, "0", core.ServerConfig{}), hold: 10 * time.Millisecond}
	s := startDaemon(t, h, nil)
	warrant, err := u.Warrant(time.Now().Add(time.Hour))
	if err != nil {
		t.Fatalf("Warrant: %v", err)
	}

	audit := func(workers int) (*core.AuditReport, int64, time.Duration) {
		tr := NewTCPTransport(TCPTransportConfig{Timeout: 10 * time.Second})
		defer tr.Close()
		dialed, err := tr.Dial(s.Addr())
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		client := netsim.NewLatentClient(dialed, 100*time.Millisecond)
		h.peak.Store(0)
		start := time.Now()
		report, err := u.StorageAudit(client, warrant, 17, core.AuditConfig{
			DatasetSize:     testBlocks,
			SampleSize:      16,
			Rounds:          8,
			BatchSignatures: true,
			Workers:         workers,
		})
		if err != nil {
			t.Fatalf("Workers %d: StorageAudit: %v", workers, err)
		}
		return report, h.peak.Load(), time.Since(start)
	}
	seq, seqPeak, seqWall := audit(1)
	streamed, streamedPeak, streamedWall := audit(4)

	if seqPeak != 1 {
		t.Errorf("sequential audit held %d challenges at once, want exactly 1", seqPeak)
	}
	if streamedPeak < 2 {
		t.Errorf("streamed audit held at most %d challenges at once, want >= 2", streamedPeak)
	}
	if float64(streamedWall) > float64(seqWall)/1.5 {
		t.Errorf("streamed audit took %v against %v sequential, want <= 1/1.5 of it", streamedWall, seqWall)
	}
	for _, r := range []*core.AuditReport{seq, streamed} {
		if !r.Valid() || falseFlags(r) != 0 {
			t.Fatalf("honest server judged invalid: valid=%t flags=%d", r.Valid(), falseFlags(r))
		}
		if lost := r.NetworkFaultRounds() + r.ShedRounds(); lost != 0 {
			t.Fatalf("%d rounds lost on a clean link", lost)
		}
	}
	if a, b := canonicalReport(seq), canonicalReport(streamed); a != b {
		t.Fatalf("verdict depends on stream width:\nsequential:\n%s\nstreamed:\n%s", a, b)
	}
	t.Logf("peak in flight %d vs %d; wall %v sequential, %v streamed", seqPeak, streamedPeak, seqWall, streamedWall)
}
