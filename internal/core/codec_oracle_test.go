package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"seccloud/internal/wire"
)

// The differential oracle for the binary codec: encoding/gob carried
// every wire message and every WAL and snapshot payload before it, and
// each value must come back from the binary codec exactly as a gob round
// trip gives it back (reflect.DeepEqual), gob's normalizations included:
// empty slices and byte strings come back nil, nil and empty maps stay
// apart. gob lives on only here, in test code.

// oracleStrings, oracleUints and oracleInts are the edge values the
// filler draws from besides random ones.
var (
	oracleStrings = []string{"", "a", "user:alice", "da:auditor", "cs:server-0", "\x00|\xff"}
	oracleUints   = []uint64{0, 1, 127, 128, 1 << 32, 1 << 63, math.MaxUint64}
	oracleInts    = []int64{0, 1, -1, 63, -64, 64, math.MinInt64, math.MaxInt64}
	// oracleSizes are a persisted block's sizes: a block arrived in one
	// frame, and the decoder refuses a size outside [0, wire.MaxFrameLen].
	oracleSizes = []int{0, 1, 127, 128, 4096, wire.MaxFrameLen}
)

// fillRandom sets v to a random value: nil, empty and filled slices and
// maps, multi-entry Σ maps, and edge integers (max uint64, negative Arg).
func fillRandom(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(rng, v.Field(i))
		}
		if pb, ok := v.Addr().Interface().(*persistedBlock); ok {
			pb.Size = oracleSizes[rng.Intn(len(oracleSizes))]
		}
	case reflect.String:
		v.SetString(oracleStrings[rng.Intn(len(oracleStrings))])
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Uint64:
		if rng.Intn(2) == 0 {
			v.SetUint(rng.Uint64() >> rng.Intn(64))
		} else {
			v.SetUint(oracleUints[rng.Intn(len(oracleUints))])
		}
	case reflect.Int, reflect.Int64:
		if rng.Intn(2) == 0 {
			v.SetInt(rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2)))
		} else {
			v.SetInt(oracleInts[rng.Intn(len(oracleInts))])
		}
	case reflect.Uint8:
		v.SetUint(uint64(rng.Intn(256)))
	case reflect.Slice:
		switch rng.Intn(4) {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			n := 1 + rng.Intn(3)
			if v.Type().Elem().Kind() == reflect.Uint8 {
				n = rng.Intn(70)
			}
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				fillRandom(rng, v.Index(i))
			}
		}
	case reflect.Map:
		switch rng.Intn(4) {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeMap(v.Type()))
		default:
			v.Set(reflect.MakeMap(v.Type()))
			for i := 1 + rng.Intn(3); i > 0; i-- {
				k := reflect.New(v.Type().Key()).Elem()
				fillRandom(rng, k)
				e := reflect.New(v.Type().Elem()).Elem()
				fillRandom(rng, e)
				v.SetMapIndex(k, e)
			}
		}
	default:
		panic("fillRandom: unhandled kind " + v.Kind().String())
	}
}

// gobRoundTrip returns what gob makes of v (a pointer to a struct).
func gobRoundTrip(t *testing.T, v any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	out := reflect.New(reflect.TypeOf(v).Elem()).Interface()
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	return out
}

const oracleValuesPerType = 300

func TestWireCodecMatchesGob(t *testing.T) {
	msgs := []wire.Message{
		new(wire.StoreRequest), new(wire.StoreResponse), new(wire.StorageAuditRequest),
		new(wire.StorageAuditResponse), new(wire.ComputeRequest), new(wire.ComputeResponse),
		new(wire.ChallengeRequest), new(wire.ChallengeResponse), new(wire.UpdateRequest),
		new(wire.DeleteRequest), new(wire.PartialRequest), new(wire.PartialResponse),
		new(wire.OverloadResponse), new(wire.ErrorResponse),
	}
	rng := rand.New(rand.NewSource(1))
	for _, proto := range msgs {
		typ := reflect.TypeOf(proto).Elem()
		for i := 0; i < oracleValuesPerType; i++ {
			m := reflect.New(typ)
			fillRandom(rng, m.Elem())
			msg := m.Interface().(wire.Message)
			data, err := wire.Encode(msg)
			if err != nil {
				t.Fatalf("%s: encode: %v", msg.Kind(), err)
			}
			got, err := wire.Decode(data)
			if err != nil {
				t.Fatalf("%s: decode: %v\n%#v", msg.Kind(), err, msg)
			}
			if want := gobRoundTrip(t, msg); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: codec and gob disagree:\ncodec %#v\ngob   %#v", msg.Kind(), got, want)
			}
		}
	}
}

func TestStateCodecMatchesGob(t *testing.T) {
	payloads := []statePayload{new(walStore), new(walCompute), new(walUpdate), new(walDelete), new(snapState), new(snapRefs)}
	rng := rand.New(rand.NewSource(2))
	for _, proto := range payloads {
		typ := reflect.TypeOf(proto).Elem()
		for i := 0; i < oracleValuesPerType; i++ {
			p := reflect.New(typ)
			fillRandom(rng, p.Elem())
			raw := encodeState(p.Interface().(statePayload))
			got := reflect.New(typ).Interface().(statePayload)
			if err := decodeState(raw, got); err != nil {
				t.Fatalf("%s: decode: %v", typ.Name(), err)
			}
			if want := gobRoundTrip(t, p.Interface()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: codec and gob disagree:\ncodec %#v\ngob   %#v", typ.Name(), got, want)
			}
		}
	}
}
