package main

import (
	"math/big"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The sandbox this benchmark runs on shares its cores with other tenants,
// and shows it in two ways. In quiet hours a register-only integer loop
// holds its speed to 0.5 %, but SS512 pairings — and any other math/big
// arithmetic, allocating or not — drift by 5–11 % between 3 s windows and
// by more between runs, with next to no steal time reported: whatever the
// host is doing then, it slows big-number arithmetic as a whole, and the
// ratio of pairing time to the time of a fixed math/big kernel taken
// beside it holds to 1–2 %. In busy hours the hypervisor also takes the
// processors away outright, for 5–40 % of a second at a time, and says so
// in /proc/stat. Ten runs of one build then spread by 15–40 % on every
// timing, more than any change this benchmark exists to detect, and no
// run length that fits the time budget averages it out.
//
// So the harness measures the machine while it measures the program. Each
// client goroutine, between two of its ops, times a fixed reference
// kernel several times a second and reads the machine's stolen and busy
// processor time. The kernel's nominal time over what it took just then,
// times the share of its wanted time the machine was given, is the
// machine's speed at that moment, and every reported time is the wall
// time multiplied by the speed around it: milliseconds at reference
// speed. Counts and bytes are untouched. Each run prints the speed it
// saw, so wall-clock values can be recovered.

// refNominal is the reference kernel's time on the reference sandbox (2
// vCPU Xeon at 2.1 GHz) in its quietest minutes: what refQuantile of its
// timings read then. On other hardware every reported time scales by
// one constant, which a comparison of two commits on one machine never
// sees.
const refNominal = 230 * time.Microsecond

// refEvery is how often each client times the kernel.
const refEvery = 20 * time.Millisecond

// speedWindow is how far around an interval kernel timings are pooled.
const speedWindow = time.Second

// refQuantile picks the kernel time that stands for a stretch of timings.
// The kernel is slowed by the machine and, on two cores that share
// execution resources, by whatever this process runs on the other core at
// that instant; the lower quartile leans toward the timings taken while
// the other core was waiting, which is the machine's part alone. Of the
// quantiles and windows tried on forty recorded runs this pair gave the
// tightest run-to-run agreement; the stolen share on top of it took the
// mean spread of forty more from 10.8 % to 9.4 % in a quiet hour.
const refQuantile = 0.25

// refKernel is 512-bit multiplication, shifting and masking on
// preallocated operands: the memory and multiplier traffic of the
// program's own hot path with no allocation, so the garbage collector's
// state — which is the program's doing, not the machine's — does not
// enter the reference. One per goroutine.
type refKernel struct {
	x, z, mask, one *big.Int
}

func newRefKernel() *refKernel {
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 512), big.NewInt(1))
	k := &refKernel{x: new(big.Int).Set(mask), z: new(big.Int).Mul(mask, mask), mask: mask, one: big.NewInt(1)}
	k.run() // size the operands
	return k
}

func (k *refKernel) run() {
	for i := 0; i < 2400; i++ {
		k.z.Mul(k.x, k.x)
		k.x.Rsh(k.z, 255)
		k.x.And(k.x, k.mask)
		k.x.Or(k.x, k.one)
	}
}

// speedometer collects kernel timings from every client goroutine.
type speedometer struct {
	now clock

	mu     sync.Mutex
	t      []refTiming
	sorted bool
}

type refTiming struct {
	at time.Time
	d  time.Duration
	// stolen and busy are the machine's cumulative stolen and busy
	// processor time, in ticks, when the timing ended.
	stolen, busy float64
}

// procStat reads the machine-wide processor times of /proc/stat: what the
// hypervisor took from this machine while it had work to run, and what
// the machine ran. Zeros where there is no such file.
func procStat() (stolen, busy float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0, 0
	}
	num := func(i int) float64 { v, _ := strconv.ParseFloat(f[i], 64); return v }
	return num(8), num(1) + num(2) + num(3) + num(6) + num(7)
}

// speedProbe is one goroutine's handle: it owns a kernel and remembers
// when it last ran it.
type speedProbe struct {
	s    *speedometer
	k    *refKernel
	last time.Time
}

func (s *speedometer) probe() *speedProbe { return &speedProbe{s: s, k: newRefKernel()} }

// tick times the kernel if this goroutine has not done so for refEvery.
func (p *speedProbe) tick() {
	t0 := p.s.now()
	if t0.Sub(p.last) < refEvery {
		return
	}
	p.k.run()
	t1 := p.s.now()
	p.last = t1
	p.s.mu.Lock()
	stolen, busy := procStat()
	p.s.t = append(p.s.t, refTiming{t0, t1.Sub(t0), stolen, busy})
	p.s.sorted = false
	p.s.mu.Unlock()
}

// speedOver is the machine's speed between from and to as a fraction of
// reference speed, from the kernel timings within speedWindow of that
// interval, widened further — doubling — until it holds eight timings or
// all there are: nominal kernel time over their refQuantile, times the
// share of the time the machine wanted to run in which it was not stolen.
// With no timing at all the speed is 1.
func (s *speedometer) speedOver(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.t) == 0 {
		return 1
	}
	if !s.sorted { // two goroutines append nearly, not strictly, in order
		sort.Slice(s.t, func(a, b int) bool { return s.t[a].at.Before(s.t[b].at) })
		s.sorted = true
	}
	var first, end int
	for widen := speedWindow; ; widen *= 2 {
		lo, hi := from.Add(-widen), to.Add(widen)
		first = sort.Search(len(s.t), func(i int) bool { return !s.t[i].at.Before(lo) })
		end = sort.Search(len(s.t), func(i int) bool { return s.t[i].at.After(hi) })
		if end-first >= 8 || end-first == len(s.t) {
			break
		}
	}
	near := make([]float64, 0, end-first)
	for _, rt := range s.t[first:end] {
		near = append(near, float64(rt.d))
	}
	a, b := s.t[first], s.t[end-1]
	return float64(refNominal) / percentile(near, refQuantile) * (1 - stolenShare(a, b))
}

// stolenShare is the share of the time the machine's processors wanted to
// run between two timings that the hypervisor gave to someone else.
func stolenShare(a, b refTiming) float64 {
	stolen, busy := b.stolen-a.stolen, b.busy-a.busy
	if stolen <= 0 || busy < 0 {
		return 0
	}
	return stolen / (stolen + busy)
}

// summary is the count of kernel timings, the median and the slowest
// tenth of the speeds they read, and the share of the run's wanted
// processor time that was stolen, for the run's notes.
func (s *speedometer) summary() (n int, med, p10, stolen float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.t) == 0 {
		return 0, 1, 1, 0
	}
	speeds := make([]float64, len(s.t))
	first, last := s.t[0], s.t[0]
	for i, rt := range s.t {
		speeds[i] = float64(refNominal) / float64(rt.d)
		if rt.at.Before(first.at) {
			first = rt
		}
		if rt.at.After(last.at) {
			last = rt
		}
	}
	return len(speeds), median(speeds), percentile(speeds, 0.10), stolenShare(first, last)
}
