package workload

import (
	"testing"
)

func TestMultiTenantValidation(t *testing.T) {
	if _, err := NewMultiTenant(1, MultiTenantConfig{Tenants: 1, ZipfS: 1.2}); err == nil {
		t.Fatal("population of 1 accepted")
	}
	if _, err := NewMultiTenant(1, MultiTenantConfig{Tenants: 100, ZipfS: 1.0}); err == nil {
		t.Fatal("zipf exponent 1.0 accepted")
	}
	if _, err := NewMultiTenant(1, MultiTenantConfig{Tenants: 100, Sessions: -1, ZipfS: 1.2}); err == nil {
		t.Fatal("negative sessions accepted")
	}
}

func TestMultiTenantTraceSkewAndDeterminism(t *testing.T) {
	cfg := MultiTenantConfig{Tenants: 100_000, Sessions: 2000, ZipfS: 1.2}
	w1, err := NewMultiTenant(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewMultiTenant(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr1, tr2 := w1.SessionTrace(), w2.SessionTrace()
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("trace diverges at %d: %d vs %d", i, tr1[i], tr2[i])
		}
		if tr1[i] < 0 || tr1[i] >= cfg.Tenants {
			t.Fatalf("trace index %d out of range", tr1[i])
		}
	}
	// Zipf skew: far fewer distinct tenants than sessions, and tenant 0
	// (the head of the distribution) dominates.
	seen := map[int]bool{}
	for _, idx := range tr1 {
		seen[idx] = true
	}
	if distinct := len(seen); distinct >= len(tr1)/2 {
		t.Fatalf("trace not skewed: %d distinct tenants in %d sessions", distinct, len(tr1))
	}
	head := 0
	for _, idx := range tr1 {
		if idx == 0 {
			head++
		}
	}
	if head < len(tr1)/10 {
		t.Fatalf("head tenant drew only %d of %d sessions", head, len(tr1))
	}
	// Consecutive traces from one source differ (open-loop arrivals).
	tr3 := w1.SessionTrace()
	same := true
	for i := range tr3 {
		if tr3[i] != tr2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("consecutive traces identical")
	}
}

func TestMultiTenantDatasetPositional(t *testing.T) {
	cfg := MultiTenantConfig{Tenants: 1000, Sessions: 10, ZipfS: 1.3, BlocksPerTenant: 6, ValuesPerBlock: 3}
	w, err := NewMultiTenant(99, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.TenantID(7) != "user:tenant-00000007" {
		t.Fatalf("TenantID = %q", w.TenantID(7))
	}
	// Materialization is positional: tenant 42's dataset does not depend
	// on which tenants were materialized before it.
	a := w.TenantDataset(42)
	b := w.TenantDataset(7)
	c := w.TenantDataset(42)
	if a.Owner != w.TenantID(42) || a.NumBlocks() != 6 {
		t.Fatalf("dataset shape: owner=%q blocks=%d", a.Owner, a.NumBlocks())
	}
	for i := range a.Blocks {
		if string(a.Blocks[i]) != string(c.Blocks[i]) {
			t.Fatalf("tenant 42 dataset unstable at block %d", i)
		}
	}
	if string(a.Blocks[0]) == string(b.Blocks[0]) {
		t.Fatal("distinct tenants share identical first blocks")
	}
}
