package main

import (
	"math"
	"sort"
	"time"
)

// sample is one closed-loop operation as the client saw it.
type sample struct {
	kind       opKind
	client     int
	start, end time.Time
	// units is what the op moved for throughput purposes (blocks for a
	// store request, 1 otherwise); wire is the frame bytes it put on and
	// took off the socket.
	units int
	wire  int64
	err   error
	// sampled, verified and lostRounds describe an audit op.
	sampled, verified, lostRounds int
	// speed is the machine's speed around the op as a fraction of
	// reference speed (see speed.go); 0 until the phase has ended.
	speed float64
}

func (s sample) dur() time.Duration { return s.end.Sub(s.start) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile returns the p-quantile (0 ≤ p ≤ 1) of vals by linear
// interpolation between closest ranks; vals need not be sorted and is not
// modified. An empty input yields NaN so a missing measurement can never
// pass for a fast one.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// rateTrim is the share of a phase's ops, the slowest, that its rate
// leaves out.
const rateTrim = 0.10

// rate is the throughput of closed-loop clients with no think time: units
// moved per second of client time at reference speed, times the number of
// clients, over every successful op but the slowest tenth — so that a
// burst of outside interference costs the ops it hit, not the run. (On
// forty recorded runs this read within 6–10 % from run to run where the
// plain mean read 6–35 %.)
func rate(samples []sample) float64 {
	type op struct{ units, seconds float64 }
	var ops []op
	clients := map[int]bool{}
	for _, s := range samples {
		if s.err == nil {
			ops = append(ops, op{float64(s.units), s.dur().Seconds() * s.speed})
			clients[s.client] = true
		}
	}
	sort.Slice(ops, func(a, b int) bool { return ops[a].seconds < ops[b].seconds })
	keep := int(math.Ceil(float64(len(ops)) * (1 - rateTrim)))
	var units, seconds float64
	for _, o := range ops[:keep] {
		units += o.units
		seconds += o.seconds
	}
	if seconds == 0 {
		return math.NaN()
	}
	return float64(len(clients)) * units / seconds
}
