// Command archive-audit demonstrates the storage-cheating model end to
// end (§III-B): a cloud archive holds a user's data under a Zipf-skewed
// access pattern; a rational semi-honest server silently deletes every
// block the trace never touched ("delete rarely access data files to
// reduce the storage cost"). The DA's sampled storage audits expose the
// deletion, and the user recovers by migrating the archive to a
// replacement provider that passes a full batched audit.
//
// Run with:
//
//	go run ./examples/archive-audit
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"seccloud"
	"seccloud/internal/workload"
)

const (
	numBlocks   = 100
	accessCount = 150
	zipfSkew    = 1.5
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "archive-audit:", err)
		os.Exit(1)
	}
}

func run() error {
	sys, err := seccloud.NewSystem(seccloud.ParamInsecureTest256)
	if err != nil {
		return err
	}
	user, err := sys.NewUser("user:archivist")
	if err != nil {
		return err
	}
	auditor, err := sys.NewAuditor("da:tpa")
	if err != nil {
		return err
	}

	// Simulate the access history the rational cheater will exploit.
	gen := seccloud.NewGenerator(11)
	trace, err := gen.ZipfAccess(numBlocks, accessCount, zipfSkew)
	if err != nil {
		return err
	}
	cold := workload.ColdFraction(numBlocks, trace)
	fmt.Printf("archive of %d blocks; Zipf(%v) access trace touches %.0f%% — %.0f%% is cold\n",
		numBlocks, zipfSkew, (1-cold)*100, cold*100)

	// The server deletes exactly the cold set at upload time.
	server, err := sys.NewServer("cs:archive", seccloud.ServerConfig{
		VerifyOnStore: true,
		Policy:        seccloud.NewColdDataCheater(trace),
	})
	if err != nil {
		return err
	}
	link := seccloud.Loopback(server)
	fmt.Printf("server policy: %s\n", server.PolicyName())

	ds := gen.GenDataset(user.ID(), numBlocks, 8)
	req, err := user.PrepareStore(ds, server.ID(), auditor.ID())
	if err != nil {
		return err
	}
	if err := user.Store(link, req); err != nil {
		return err
	}
	fmt.Println("upload accepted — the deletion is invisible until someone audits")

	// Sampled storage audits with the batch verification path.
	warrant, err := user.Delegate(auditor.ID(), "", time.Now().Add(time.Hour))
	if err != nil {
		return err
	}
	for _, t := range []int{5, 10, 20} {
		report, err := auditor.AuditStorage(link, user.ID(), warrant, seccloud.AuditConfig{
			DatasetSize:     numBlocks,
			SampleSize:      t,
			Rng:             rand.New(rand.NewSource(int64(t))),
			BatchSignatures: true,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  audit t=%2d: %d of %d sampled blocks failed signature checks\n",
			t, len(report.Failures), t)
		if t == 20 && report.Valid() {
			return fmt.Errorf("a 20%% sample missed a %.0f%% deletion — statistically implausible", cold*100)
		}
	}

	// Recovery: a repair sent to the still-cheating server would be
	// silently re-deleted (its policy runs on every store — try it and the
	// re-check fails again). The rational response after detection is
	// migration: re-upload to a fresh, honest server and confirm with a
	// full audit.
	fullReport, err := auditor.AuditStorage(link, user.ID(), warrant, seccloud.AuditConfig{
		DatasetSize: numBlocks, SampleSize: numBlocks,
		Rng: rand.New(rand.NewSource(99)),
	})
	if err != nil {
		return err
	}
	fmt.Printf("full audit: %d of %d blocks gone — migrating to a new provider\n",
		len(fullReport.Failures), numBlocks)

	honest, err := sys.NewServer("cs:replacement", seccloud.ServerConfig{VerifyOnStore: true})
	if err != nil {
		return err
	}
	honestLink := seccloud.Loopback(honest)
	req2, err := user.PrepareStore(ds, honest.ID(), auditor.ID())
	if err != nil {
		return err
	}
	if err := user.Store(honestLink, req2); err != nil {
		return err
	}
	recheck, err := auditor.AuditStorage(honestLink, user.ID(), warrant, seccloud.AuditConfig{
		DatasetSize: numBlocks, SampleSize: numBlocks,
		Rng:             rand.New(rand.NewSource(7)),
		BatchSignatures: true,
	})
	if err != nil {
		return err
	}
	if !recheck.Valid() {
		return fmt.Errorf("replacement server failed the audit: %d failures", len(recheck.Failures))
	}
	fmt.Println("replacement server passes a full batched audit — archive restored")
	return nil
}
