package core

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"testing"
	"time"

	"seccloud/internal/funcs"
	"seccloud/internal/netsim"
	"seccloud/internal/workload"
)

// newFleet builds a CSP over the given per-server policies.
func newFleet(t *testing.T, sys *system, policies []CheatPolicy) *CSP {
	t.Helper()
	sp := sys.sio.Params()
	for i, pol := range policies {
		key, err := sys.sio.Extract(fmt.Sprintf("cs:fleet-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(sp, key, ServerConfig{
			VerifyOnStore: true,
			Policy:        pol,
			Random:        rand.Reader,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.servers = append(sys.servers, srv)
		sys.clients = append(sys.clients, netsim.NewLoopback(srv, netsim.LinkConfig{}))
	}
	csp, err := NewCSP(sys.clients)
	if err != nil {
		t.Fatal(err)
	}
	return csp
}

func TestDistributedHonestJob(t *testing.T) {
	sys := newSystem(t) // no direct servers; fleet added below
	csp := newFleet(t, sys, []CheatPolicy{nil, nil, nil})

	gen := workload.NewGenerator(20)
	ds := gen.GenDataset(sys.user.ID(), 12, 4)
	req, err := sys.user.PrepareStore(ds, verifierIDs(sys)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := csp.ReplicateStore(sys.user, req); err != nil {
		t.Fatal(err)
	}

	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 12)
	subs, err := csp.RunJob(sys.user, "dist-1", job)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 3 {
		t.Fatalf("expected 3 sub-jobs, got %d", len(subs))
	}

	// Results reassemble to the honest values.
	merged, err := MergeResults(job.Len(), subs)
	if err != nil {
		t.Fatal(err)
	}
	reg := funcs.NewRegistry()
	for i := range merged {
		want, err := reg.Eval(funcs.Spec{Name: "sum"}, [][]byte{ds.Blocks[i]})
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(merged[i]) {
			t.Fatalf("merged result %d differs from direct evaluation", i)
		}
	}

	// Every sub-job passes its audit.
	warrant, err := WildcardWarrant(sys.user, sys.agency.ID(), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range Delegations(sys.user, subs, warrant) {
		report, err := sys.agency.AuditJob(csp.Client(subs[i].ServerIdx), d, AuditConfig{
			SampleSize: 2, Rng: mrand.New(mrand.NewSource(int64(i))),
		})
		if err != nil {
			t.Fatalf("audit of sub-job %d: %v", i, err)
		}
		if !report.Valid() {
			t.Fatalf("honest sub-job %d failed audit: %+v", i, report.Failures)
		}
	}
}

func TestDistributedByzantineSubsetDetected(t *testing.T) {
	// The §III-B adversary corrupts b = 1 of n = 3 servers; per-server
	// audits must flag exactly the corrupted one.
	sys := newSystem(t)
	cheater := &ComputationCheater{CSC: 0, Rng: mrand.New(mrand.NewSource(30))}
	csp := newFleet(t, sys, []CheatPolicy{nil, cheater, nil})

	gen := workload.NewGenerator(21)
	ds := gen.GenDataset(sys.user.ID(), 9, 4)
	req, err := sys.user.PrepareStore(ds, verifierIDs(sys)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := csp.ReplicateStore(sys.user, req); err != nil {
		t.Fatal(err)
	}

	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "digest"}, 9)
	subs, err := csp.RunJob(sys.user, "dist-byz", job)
	if err != nil {
		t.Fatal(err)
	}
	warrant, err := WildcardWarrant(sys.user, sys.agency.ID(), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	var flagged []int
	for i, d := range Delegations(sys.user, subs, warrant) {
		report, err := sys.agency.AuditJob(csp.Client(subs[i].ServerIdx), d, AuditConfig{
			SampleSize: 3, Rng: mrand.New(mrand.NewSource(int64(40 + i))),
		})
		if err != nil {
			t.Fatalf("audit of sub-job %d: %v", i, err)
		}
		if !report.Valid() {
			flagged = append(flagged, subs[i].ServerIdx)
		}
	}
	if len(flagged) != 1 || flagged[0] != 1 {
		t.Fatalf("expected exactly server 1 flagged, got %v", flagged)
	}
}

func TestMergeResultsErrors(t *testing.T) {
	sys := newSystem(t)
	csp := newFleet(t, sys, []CheatPolicy{nil, nil})
	gen := workload.NewGenerator(22)
	ds := gen.GenDataset(sys.user.ID(), 4, 4)
	req, err := sys.user.PrepareStore(ds, verifierIDs(sys)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := csp.ReplicateStore(sys.user, req); err != nil {
		t.Fatal(err)
	}
	job := workload.UniformJob(sys.user.ID(), funcs.Spec{Name: "sum"}, 4)
	subs, err := csp.RunJob(sys.user, "m", job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeResults(job.Len(), subs[:1]); err == nil {
		t.Fatal("missing sub-job not detected")
	}
	if _, err := MergeResults(job.Len(), append(subs, subs[0])); err == nil {
		t.Fatal("duplicate sub-job not detected")
	}
}

// verifierIDs lists the designated verifiers for a system's uploads: every
// server plus the DA.
func verifierIDs(sys *system) []string {
	ids := make([]string, 0, len(sys.servers)+1)
	for _, s := range sys.servers {
		ids = append(ids, s.ID())
	}
	ids = append(ids, sys.agency.ID())
	return ids
}

func TestLoopbackByteAccounting(t *testing.T) {
	sys := newSystem(t, nil)
	gen := workload.NewGenerator(24)
	ds := gen.GenDataset(sys.user.ID(), 4, 16)
	sys.storeDataset(t, ds)
	st := sys.clients[0].Stats()
	if st.Calls != 1 {
		t.Fatalf("expected 1 call, got %d", st.Calls)
	}
	// The request carries 4 blocks of 128 bytes plus signatures; it must
	// dominate the response.
	if st.BytesSent < 4*128 || st.BytesSent <= st.BytesRecv {
		t.Fatalf("byte accounting implausible: %+v", st)
	}
}

func TestLoopbackLatencyModel(t *testing.T) {
	sys := newSystem(t, nil)
	srvKey, err := sys.sio.Extract("cs:slow")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys.sio.Params(), srvKey, ServerConfig{Random: rand.Reader})
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLoopback(srv, netsim.LinkConfig{
		RTT:            10 * time.Millisecond,
		BytesPerSecond: 1 << 20,
	})
	gen := workload.NewGenerator(25)
	ds := gen.GenDataset(sys.user.ID(), 2, 64)
	req, err := sys.user.PrepareStore(ds, srv.ID(), sys.agency.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.user.Store(link, req); err != nil {
		t.Fatal(err)
	}
	st := link.Stats()
	if st.SimLatency < 10*time.Millisecond {
		t.Fatalf("simulated latency %v below configured RTT", st.SimLatency)
	}
	wantTransfer := time.Duration(float64(st.TotalBytes()) / float64(1<<20) * float64(time.Second))
	if st.SimLatency < 10*time.Millisecond+wantTransfer/2 {
		t.Fatalf("bandwidth term missing: latency %v, transfer %v", st.SimLatency, wantTransfer)
	}
}
