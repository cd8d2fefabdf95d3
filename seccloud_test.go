package seccloud

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"seccloud/internal/funcs"
	"seccloud/internal/workload"
)

func newTestSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(ParamInsecureTest256)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func TestNewSystemRejectsUnknownParams(t *testing.T) {
	if _, err := NewSystem(ParamSet(99)); err == nil {
		t.Fatal("unknown parameter set accepted")
	}
	if _, err := NewSystemDeterministic(ParamSet(0), 1); err == nil {
		t.Fatal("unknown parameter set accepted")
	}
	if _, err := MeasureOps(ParamSet(42), 1); err == nil {
		t.Fatal("unknown parameter set accepted")
	}
}

func TestDeterministicSystemsAgree(t *testing.T) {
	s1, err := NewSystemDeterministic(ParamInsecureTest256, 7)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSystemDeterministic(ParamInsecureTest256, 7)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := s1.ExtractKey("user:x")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s2.ExtractKey("user:x")
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Params().G1().Equal(k1.SK, k2.SK) {
		t.Fatal("same seed produced different keys")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	sys := newTestSystem(t)
	user, err := sys.NewUser("user:alice")
	if err != nil {
		t.Fatal(err)
	}
	server, err := sys.NewServer("cs:1", ServerConfig{VerifyOnStore: true})
	if err != nil {
		t.Fatal(err)
	}
	auditor, err := sys.NewAuditor("da:tpa")
	if err != nil {
		t.Fatal(err)
	}
	link := Loopback(server)

	gen := NewGenerator(1)
	ds := gen.GenDataset(user.ID(), 8, 8)
	req, err := user.PrepareStore(ds, server.ID(), auditor.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Store(link, req); err != nil {
		t.Fatal(err)
	}
	job := workload.UniformJob(user.ID(), funcs.Spec{Name: "sum"}, 8)
	resp, err := user.SubmitJob(link, "fj", job)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Delegate(user, auditor.ID(), "fj", job, resp, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	report, err := auditor.AuditJob(link, d, AuditConfig{
		SampleSize: 4, Rng: rand.New(rand.NewSource(1)), BatchSignatures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Valid() {
		t.Fatalf("honest facade flow failed audit: %+v", report.Failures)
	}
}

func TestFacadeTCP(t *testing.T) {
	sys := newTestSystem(t)
	server, err := sys.NewServer("cs:tcp", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeTCP("127.0.0.1:0", server)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	client, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	user, err := sys.NewUser("user:t")
	if err != nil {
		t.Fatal(err)
	}
	ds := NewGenerator(2).GenDataset(user.ID(), 2, 4)
	req, err := user.PrepareStore(ds, server.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Store(client, req); err != nil {
		t.Fatalf("store over facade TCP: %v", err)
	}

	// Dialing a closed server fails at DialTCP, not at the first Store.
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if c, err := DialTCP(addr); err == nil {
		_ = c.Close()
		t.Fatal("DialTCP to a closed server succeeded")
	}
}

func TestFacadeCheatDetection(t *testing.T) {
	sys := newTestSystem(t)
	user, err := sys.NewUser("user:v")
	if err != nil {
		t.Fatal(err)
	}
	auditor, err := sys.NewAuditor("da:v")
	if err != nil {
		t.Fatal(err)
	}
	server, err := sys.NewServer("cs:v", ServerConfig{
		VerifyOnStore: true,
		Policy:        &ComputationCheater{CSC: 0, Rng: rand.New(rand.NewSource(3))},
	})
	if err != nil {
		t.Fatal(err)
	}
	link := Loopback(server)
	ds := NewGenerator(3).GenDataset(user.ID(), 6, 4)
	req, err := user.PrepareStore(ds, server.ID(), auditor.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Store(link, req); err != nil {
		t.Fatal(err)
	}
	job := workload.UniformJob(user.ID(), funcs.Spec{Name: "digest"}, 6)
	resp, err := user.SubmitJob(link, "cheat", job)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Delegate(user, auditor.ID(), "cheat", job, resp, time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	report, err := auditor.AuditJob(link, d, AuditConfig{SampleSize: 3, Rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	if report.Valid() {
		t.Fatal("facade audit missed a total cheater")
	}
}

func TestFacadeSamplingHelpers(t *testing.T) {
	t33, err := RequiredSampleSize(SamplingParams{CSC: 0.5, SSC: 0.5, R: 2}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if t33 != 33 {
		t.Fatalf("facade RequiredSampleSize = %d, want 33", t33)
	}
	tStar, err := OptimalSampleSize(CostParams{
		A1: 1, A2: 1, A3: 1, CTrans: 1, CComp: 1, CCheat: 1e6, Q: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tStar <= 0 {
		t.Fatalf("facade OptimalSampleSize = %d, want positive", tStar)
	}
}

func TestFacadeMeasureOps(t *testing.T) {
	ops, err := MeasureOps(ParamInsecureTest256, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ops.Pairing <= 0 || ops.PointMul <= 0 {
		t.Fatalf("implausible op times %+v", ops)
	}
}

func TestFacadeLearner(t *testing.T) {
	h, err := NewHistoryLearner(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Observe(Observation{SampleSize: 4, TransBytes: 100, CompCost: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RecommendSampleSize(1, 1, 1, 1e9); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeInfinityRange(t *testing.T) {
	t15, err := RequiredSampleSize(SamplingParams{CSC: 0.5, SSC: 0.5, R: math.Inf(1)}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if t15 != 15 {
		t.Fatalf("R→∞ spot value via facade = %d, want 15", t15)
	}
}
