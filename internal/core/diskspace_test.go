package core

import (
	"crypto/rand"
	"io/fs"
	mrand "math/rand"
	"os"
	"path/filepath"
	"testing"

	"seccloud/internal/funcs"
	"seccloud/internal/store"
	"seccloud/internal/wire"
)

// writeCountingFS counts the bytes written through it.
type writeCountingFS struct {
	store.FS
	written int64
}

func (c *writeCountingFS) OpenFile(path string, flag int, perm os.FileMode) (store.File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return writeCountingFile{f, c}, nil
}

type writeCountingFile struct {
	store.File
	fs *writeCountingFS
}

func (f writeCountingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written += int64(n)
	return n, err
}

// TestDiskPerLiveByte measures the bytes a durable server keeps on disk
// per byte of live user data, under SnapshotEvery 16, after two scripted
// histories of 4 KiB blocks with real designated signatures: an
// upload-only one (512 blocks in 32-block requests) and an overwrite-only
// one (the same upload, then 1024 single-block updates at random
// positions). It logs the ratio at the end of each history, the largest
// one seen between requests, and the bytes written per user byte sent.
// Overwrites leave dead records in the log, which a base record clears
// once they outgrow the live state, so the overwrite-only history ends
// at no more than 2.1 bytes a byte.
func TestDiskPerLiveByte(t *testing.T) {
	if testing.Short() {
		t.Skip("signs 1.5k blocks")
	}
	sys := newSystem(t)
	key, err := sys.sio.Extract("cs:space")
	if err != nil {
		t.Fatal(err)
	}
	const blocks, reqBlocks, updates = 512, 32, 1024
	for _, overwrites := range []int{0, updates} {
		dir := t.TempDir()
		disk := &writeCountingFS{FS: store.OSFS()}
		srv, err := NewServer(sys.sio.Params(), key, ServerConfig{Random: rand.Reader,
			Durability: &DurabilityConfig{Dir: dir, FS: disk, SnapshotEvery: 16, NoSync: true}})
		if err != nil {
			t.Fatal(err)
		}
		rng := mrand.New(mrand.NewSource(1))
		block := func() []byte {
			vec := make([]int64, 512)
			for i := range vec {
				vec[i] = rng.Int63()
			}
			return funcs.EncodeBlock(vec)
		}
		sign := func(pos uint64, data []byte) wire.BlockSig {
			sig, err := sys.user.SignBlock(pos, data, srv.ID(), sys.agency.ID())
			if err != nil {
				t.Fatal(err)
			}
			return sig
		}
		live := map[uint64]int{}
		sent := 0
		worst := 0.0
		ratio := func() float64 {
			var disk, user int64
			filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() {
					info, _ := d.Info()
					disk += info.Size()
				}
				return nil
			})
			for _, n := range live {
				user += int64(n)
			}
			r := float64(disk) / float64(user)
			worst = max(worst, r)
			return r
		}
		for p := uint64(0); p < blocks; p += reqBlocks {
			req := &wire.StoreRequest{UserID: sys.user.ID()}
			for pos := p; pos < p+reqBlocks; pos++ {
				data := block()
				req.Positions, req.Blocks, req.Sigs = append(req.Positions, pos), append(req.Blocks, data), append(req.Sigs, sign(pos, data))
				live[pos] = len(data)
				sent += len(data)
			}
			if r := srv.Handle(req).(*wire.StoreResponse); !r.OK {
				t.Fatalf("store: %s", r.Error)
			}
			ratio()
		}
		for i := 0; i < overwrites; i++ {
			pos := uint64(rng.Intn(blocks))
			req := buildUpdate(t, sys, srv.ID(), pos, uint64(i+1), block())
			live[pos] = len(req.Block)
			sent += len(req.Block)
			if r := srv.Handle(req).(*wire.StoreResponse); !r.OK {
				t.Fatalf("update %d: %s", i, r.Error)
			}
			ratio()
		}
		end := ratio()
		t.Logf("%d overwrites: %.4f disk bytes per live byte at the end, %.4f at most; %.4f bytes written per byte sent",
			overwrites, end, worst, float64(disk.written)/float64(sent))
		if overwrites > 0 && end > 2.1 {
			t.Errorf("the overwrite-only history ends at %.4f disk bytes per live byte, above 2.1", end)
		}
		srv.Close()
	}
}
