package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"seccloud/internal/wire"
)

// codecSamples returns representative verdicts: a single-server job
// audit, then one that adds a fleet trail, one that adds the overload
// section and one with every field set.
func codecSamples() []*Evidence {
	job := Evidence{
		AuditorID:           "da:auditor",
		JobID:               "job-7",
		UserID:              "user:alice",
		ServerID:            "cs:server-0",
		Sampled:             []uint64{0, 3, 1 << 40},
		Valid:               true,
		FailureSummary:      "sig@3",
		EffectiveSampleSize: 3,
		NetworkFaultRounds:  1,
		Sig:                 wire.IBSig{U: []byte{1, 2, 3}, V: []byte{4, 5}},
	}
	fleet := job
	fleet.FailoverSummary = "r0>1:timeout"
	fleet.QuorumSummary = "blk3:confirmed"
	overload := fleet
	overload.PlannedSampleSize = 5
	overload.DegradedByOverload = true
	overload.ShedRounds = 2
	overload.HedgedRounds = 1
	overload.DetectionConfidence = 0.9921875
	threshold := overload
	threshold.ThresholdQuorum = "1,2,4"
	threshold.ThresholdFaults = "crashed=3|byz=5"
	threshold.ThresholdRecoveries = 2
	threshold.ThresholdCombined = "aabbccdd"
	return []*Evidence{&job, &fleet, &overload, &threshold}
}

func TestEvidenceCodecRoundTrip(t *testing.T) {
	for i, e := range codecSamples() {
		raw, err := EncodeEvidence(e)
		if err != nil {
			t.Fatalf("sample %d: encode: %v", i, err)
		}
		got, err := DecodeEvidence(raw)
		if err != nil {
			t.Fatalf("sample %d: decode: %v", i, err)
		}
		// The encoding is canonical, so re-encoding the decoded verdict
		// must reproduce the exact bytes.
		again, err := EncodeEvidence(got)
		if err != nil {
			t.Fatalf("sample %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(raw, again) {
			t.Fatalf("sample %d: round trip not canonical:\n  %x\n  %x", i, raw, again)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("sample %d: fields lost:\n  got  %+v\n  want %+v", i, got, e)
		}
	}
}

// TestEvidenceCodecSignedRoundTrip: a verdict that travels through the
// byte codec still verifies against the auditor identity.
func TestEvidenceCodecSignedRoundTrip(t *testing.T) {
	sys := newSystem(t, nil)
	e := &Evidence{
		AuditorID:           sys.agency.ID(),
		UserID:              sys.user.ID(),
		ServerID:            sys.servers[0].ID(),
		Sampled:             []uint64{1, 5},
		Valid:               true,
		EffectiveSampleSize: 2,
		ThresholdQuorum:     "1,2,3",
		ThresholdCombined:   "cafe",
	}
	signed, err := sys.agency.signEvidence(e)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeEvidence(signed)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeEvidence(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEvidence(sys.agency.scheme, decoded); err != nil {
		t.Fatalf("codec round trip broke the signature: %v", err)
	}
}

func TestEvidenceCodecRejects(t *testing.T) {
	valid, err := EncodeEvidence(codecSamples()[3])
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         nil,
		"bad magic":     []byte("XXEV\x01"),
		"magic only":    []byte("SCEV"),
		"version 0":     []byte("SCEV\x00"),
		"version 99":    []byte("SCEV\x63"),
		"truncated":     valid[:len(valid)/2],
		"trailing byte": append(append([]byte(nil), valid...), 0),
	}
	// Oversized length prefix: promise a 4 GiB auditor ID.
	over := append([]byte(nil), "SCEV\x04"...)
	over = append(over, 0xff, 0xff, 0xff, 0xff, 0x0f)
	cases["oversized length"] = over
	// Every other version is refused, even when the rest of the record
	// is a well-formed current one.
	for v := byte(1); v < EvidenceVersion; v++ {
		skew := append([]byte(nil), valid...)
		skew[4] = v
		cases[fmt.Sprintf("version %d", v)] = skew
	}
	for name, raw := range cases {
		if _, err := DecodeEvidence(raw); err == nil {
			t.Errorf("%s: decoder accepted malformed input", name)
		}
	}
}

// FuzzDecodeEvidence: the decoder must error on arbitrary bytes —
// truncated, oversized, wrong-version — and never panic or
// over-allocate. Any input it does accept must round-trip canonically.
func FuzzDecodeEvidence(f *testing.F) {
	for i, e := range codecSamples() {
		raw, err := EncodeEvidence(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-3])
		skew := append([]byte(nil), raw...)
		skew[4] = byte(i%(EvidenceVersion-1)) + 1
		f.Add(skew)
	}
	f.Add([]byte("SCEV"))
	f.Add([]byte("SCEV\x04\xff\xff\xff\xff\x0f"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, err := DecodeEvidence(raw)
		if err != nil {
			return
		}
		again, err := EncodeEvidence(e)
		if err != nil {
			t.Fatalf("decoded evidence failed to re-encode: %v", err)
		}
		round, err := DecodeEvidence(again)
		if err != nil {
			t.Fatalf("re-encoded evidence failed to decode: %v", err)
		}
		if !reflect.DeepEqual(round, e) {
			t.Fatalf("round trip drifted: %+v vs %+v", e, round)
		}
	})
}
