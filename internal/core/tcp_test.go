package core_test

import (
	mrand "math/rand"
	"testing"
	"time"

	"seccloud/internal/core"
	"seccloud/internal/daemon"
	"seccloud/internal/funcs"
	"seccloud/internal/pairing"
	"seccloud/internal/workload"
)

// TestProtocolOverTCP runs the end-to-end flow across a real socket: the
// server behind daemon.Listen, user and DA talking through one pooled
// daemon.Client. It lives in an external test package because core
// cannot import the daemon that imports core.
func TestProtocolOverTCP(t *testing.T) {
	u, err := daemon.NewUniverse(pairing.InsecureTest256(), 23)
	if err != nil {
		t.Fatal(err)
	}
	server, err := u.NewServer("tcp", core.ServerConfig{VerifyOnStore: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := daemon.Listen("127.0.0.1:0", daemon.ServerConfig{Handler: server})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	}()
	client := daemon.NewClient(daemon.NewPool(daemon.PoolConfig{Addr: srv.Addr()}), daemon.ClientConfig{})
	defer func() {
		if err := client.Close(); err != nil {
			t.Errorf("closing client: %v", err)
		}
	}()

	gen := workload.NewGenerator(23)
	ds := gen.GenDataset(u.User.ID(), 6, 4)
	req, err := u.User.PrepareStore(ds, server.ID(), u.Agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := u.User.Store(client, req); err != nil {
		t.Fatalf("Store over TCP: %v", err)
	}

	job := workload.UniformJob(u.User.ID(), funcs.Spec{Name: "mean"}, 6)
	resp, err := u.User.SubmitJob(client, "tcp-job", job)
	if err != nil {
		t.Fatalf("SubmitJob over TCP: %v", err)
	}
	warrant, err := u.User.Delegate(u.Agency.ID(), "tcp-job", time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	d := &core.JobDelegation{
		UserID:   u.User.ID(),
		ServerID: resp.ServerID,
		JobID:    "tcp-job",
		Tasks:    core.TasksToWire(job),
		Results:  resp.Results,
		Root:     resp.Root,
		RootSig:  resp.RootSig,
		Warrant:  warrant,
	}
	report, err := u.Agency.AuditJob(client, d, core.AuditConfig{
		SampleSize: 3, Rng: mrand.New(mrand.NewSource(50)), BatchSignatures: true,
	})
	if err != nil {
		t.Fatalf("AuditJob over TCP: %v", err)
	}
	if !report.Valid() {
		t.Fatalf("honest server failed TCP audit: %+v", report.Failures)
	}
	// The TCP link recorded real traffic.
	if st := client.Stats(); st.Calls < 3 || st.TotalBytes() == 0 {
		t.Fatalf("TCP stats implausible: %+v", st)
	}
}
