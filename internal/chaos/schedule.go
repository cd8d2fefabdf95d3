// Package chaos is the repository's Jepsen-style harness: a
// seed-deterministic nemesis that composes every fault injector the
// system has grown — transport faults, directional partitions, clock
// skew, process crashes and outages, sick disks, real tamper — into one
// schedule, plus an invariant engine that checks the global safety
// properties no single-fault simulation can: zero false flags, acked
// durability, evidence-chain verifiability, verdict agreement with a
// fault-free reference replay, and eventual liveness once the nemesis
// goes quiet.
//
// Everything is a pure function of a single seed. A failing run shrinks
// (ddmin-style) to a minimal schedule and prints a one-line repro whose
// re-execution fails byte-for-byte identically.
package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"seccloud/internal/netsim"
)

// StepKind enumerates the nemesis's moves.
type StepKind int

// The schedule step kinds.
const (
	// StepFaults sets a server's link fault rates (drop/corrupt), both
	// the DA and CSP legs.
	StepFaults StepKind = iota + 1
	// StepCalm clears a server's link faults.
	StepCalm
	// StepCut blocks the directed group edge From → To.
	StepCut
	// StepHeal clears every partition cut.
	StepHeal
	// StepSkew sets a node's clock offset from real time.
	StepSkew
	// StepCrash arms a crash point on a server's disk; the next write
	// the point matches kills the process (its reply and every later
	// request are dropped), and the nemesis restarts it, running full
	// recovery, at the next epoch boundary.
	StepCrash
	// StepKill takes a server off the network for whole epochs (state
	// and WAL intact) until StepRevive.
	StepKill
	// StepRevive returns a killed server to the network.
	StepRevive
	// StepDisk sets a server's FaultFS rates (fsync errors, short
	// writes, snapshot read-rot, torn renames).
	StepDisk
	// StepDiskHeal clears a server's disk fault rates.
	StepDiskHeal
	// StepRestart kills a server out-of-band (SIGKILL) and immediately
	// recovers it from its WAL directory.
	StepRestart
	// StepTamper is the real adversary: silent bit-rot of the server's
	// highest block positions, registered in the ledger so detection is
	// expected and accusation is NOT a false flag.
	StepTamper
	// StepPlant deliberately breaks an invariant (unregistered rot, a
	// reverted acked write, a forged evidence byte) — the mutation
	// self-test of the invariant engine. A checker that cannot catch a
	// plant is worthless.
	StepPlant
	// StepCheat is the computation adversary (§III-B): for this epoch
	// only, the server guesses each sub-task result with probability
	// 1 − CSC instead of computing it. The mobile adversary re-picks
	// every epoch, so the next epoch starts honest again.
	StepCheat
	// StepShed is overload: for this epoch the nemesis holds every
	// admission slot of the server, so the gate refuses each request to
	// it with a typed overload reply.
	StepShed
	// StepQuorum is the DA's shape, not a move: at epoch 1 only, it deals
	// the verifier key T-of-N to share-holders and audits run through a
	// quorum of their partials. Without it the run trusts one DA.
	StepQuorum
	// StepHKill takes share-holder Target (1-based) off the network for
	// this epoch.
	StepHKill
	// StepHByz makes share-holder Target (1-based) forge its partials for
	// this epoch.
	StepHByz
	// StepTenants is the agency's traffic shape, like StepQuorum: at epoch
	// 1 only, it registers Tenants tenants, and every epoch the scheduler
	// drains Sessions Zipf-drawn sessions of theirs through the fleet.
	StepTenants
	// StepTTamper is the real adversary on a tenant: silent rot of every
	// block tenant Target (its Zipf rank) stores, registered in the
	// ledger so its conviction is expected.
	StepTTamper
)

var stepNames = map[StepKind]string{
	StepFaults: "faults", StepCalm: "calm", StepCut: "cut", StepHeal: "heal",
	StepSkew: "skew", StepCrash: "crash", StepKill: "kill", StepRevive: "revive",
	StepDisk: "disk", StepDiskHeal: "diskheal", StepRestart: "restart",
	StepTamper: "tamper", StepPlant: "plant", StepCheat: "cheat", StepShed: "shed",
	StepQuorum: "quorum", StepHKill: "hkill", StepHByz: "hbyz",
	StepTenants: "tenants", StepTTamper: "ttamper",
}

// The plant kinds (see StepPlant).
const (
	PlantFalseFlag      = "false-flag"
	PlantLostWrite      = "lost-write"
	PlantForgedEvidence = "forged-evidence"
)

// Step is one nemesis move, applied at the start of its epoch.
type Step struct {
	Epoch int
	Kind  StepKind

	// Target is the victim server index (every kind but cut, heal, skew,
	// quorum and tenants), the 1-based share index for hkill and hbyz, or
	// the tenant's rank for ttamper.
	Target int
	// Node is the skewed node: "da" or a server index rendered in
	// decimal.
	Node string
	// From and To are the directed cut groups (node names).
	From, To []string
	// Point is the crash point name (netsim.CrashPointByName).
	Point string
	// Skew is the clock offset to install.
	Skew time.Duration
	// Drop and Corrupt are the link fault rates.
	Drop, Corrupt float64
	// CSC is a cheating server's computing confidence.
	CSC float64
	// Sync, Short, Rot and Rename are the disk fault rates.
	Sync, Short, Rot, Rename float64
	// Blocks is how many top positions StepTamper rots.
	Blocks int
	// Plant is the planted violation kind.
	Plant string
	// T of N is the dealt quorum shape.
	T, N int
	// Tenants and Sessions are the registered population and the sessions
	// drained per epoch.
	Tenants, Sessions int
}

// String renders the step in the schedule grammar (see DESIGN.md §10).
func (s Step) String() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var body string
	switch s.Kind {
	case StepFaults:
		body = fmt.Sprintf("faults(%d,drop=%s,corrupt=%s)", s.Target, f(s.Drop), f(s.Corrupt))
	case StepCalm:
		body = fmt.Sprintf("calm(%d)", s.Target)
	case StepCut:
		body = fmt.Sprintf("cut(%s>%s)", strings.Join(s.From, "+"), strings.Join(s.To, "+"))
	case StepHeal:
		body = "heal"
	case StepSkew:
		body = fmt.Sprintf("skew(%s,%s)", s.Node, s.Skew)
	case StepCrash:
		body = fmt.Sprintf("crash(%d,%s)", s.Target, s.Point)
	case StepKill:
		body = fmt.Sprintf("kill(%d)", s.Target)
	case StepRevive:
		body = fmt.Sprintf("revive(%d)", s.Target)
	case StepDisk:
		body = fmt.Sprintf("disk(%d,sync=%s,short=%s,rot=%s,rename=%s)",
			s.Target, f(s.Sync), f(s.Short), f(s.Rot), f(s.Rename))
	case StepDiskHeal:
		body = fmt.Sprintf("diskheal(%d)", s.Target)
	case StepRestart:
		body = fmt.Sprintf("restart(%d)", s.Target)
	case StepTamper:
		body = fmt.Sprintf("tamper(%d,%d)", s.Target, s.Blocks)
	case StepPlant:
		body = fmt.Sprintf("plant(%s,%d)", s.Plant, s.Target)
	case StepCheat:
		body = fmt.Sprintf("cheat(%d,csc=%s)", s.Target, f(s.CSC))
	case StepShed:
		body = fmt.Sprintf("shed(%d)", s.Target)
	case StepQuorum:
		body = fmt.Sprintf("quorum(%d,%d)", s.T, s.N)
	case StepHKill:
		body = fmt.Sprintf("hkill(%d)", s.Target)
	case StepHByz:
		body = fmt.Sprintf("hbyz(%d)", s.Target)
	case StepTenants:
		body = fmt.Sprintf("tenants(%d,%d)", s.Tenants, s.Sessions)
	case StepTTamper:
		body = fmt.Sprintf("ttamper(%d)", s.Target)
	default:
		body = fmt.Sprintf("step(%d)", int(s.Kind))
	}
	return fmt.Sprintf("e%d:%s", s.Epoch, body)
}

// Schedule is an epoch-ordered step list.
type Schedule []Step

// String renders the whole schedule, one token per step.
func (sc Schedule) String() string {
	parts := make([]string, len(sc))
	for i, s := range sc {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ")
}

// stepsAt returns the steps scheduled for one epoch, in schedule order.
func (sc Schedule) stepsAt(epoch int) []Step {
	var out []Step
	for _, s := range sc {
		if s.Epoch == epoch {
			out = append(out, s)
		}
	}
	return out
}

// ParseSchedule parses the grammar Schedule.String emits. Parse(String(x))
// is the identity — the property the shrinker's printed repro depends on.
func ParseSchedule(text string) (Schedule, error) {
	var sched Schedule
	for _, tok := range strings.Fields(text) {
		st, err := parseStep(tok)
		if err != nil {
			return nil, err
		}
		sched = append(sched, st)
	}
	// Steps execute in epoch order; within an epoch, in written order.
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Epoch < sched[j].Epoch })
	if err := sched.validate(); err != nil {
		return nil, err
	}
	return sched, nil
}

// shape returns the schedule's first step of a shape kind: its quorum
// (nil for a single DA) or its tenants (nil for no tenant traffic).
func (sc Schedule) shape(kind StepKind) *Step {
	for i := range sc {
		if sc[i].Kind == kind {
			return &sc[i]
		}
	}
	return nil
}

// validate refuses what no cluster can run, whatever its size: a quorum
// or tenants step outside epoch 1 or repeated, t outside 1..n, k or s
// outside bounds that keep a typo from asking for more memory than a
// machine has, a holder step without a quorum or naming a share
// outside 1..n, more holders faulted in one epoch than the n−t a quorum
// survives, a ttamper without tenants or naming a rank outside 0..k−1, a
// tamper of other than 1..tamperReserve blocks and an unknown crash point.
func (sc Schedule) validate() error {
	q, ten := sc.shape(StepQuorum), sc.shape(StepTenants)
	faulted := map[int]map[int]bool{} // epoch → holders
	for i, s := range sc {
		switch s.Kind {
		case StepQuorum:
			switch {
			case &sc[i] != q:
				return fmt.Errorf("chaos: %s: a second quorum step", s)
			case s.Epoch != 1:
				return fmt.Errorf("chaos: %s: the quorum is dealt at epoch 1", s)
			case s.T < 1 || s.T > s.N:
				return fmt.Errorf("chaos: %s: t must be in 1..n", s)
			}
		case StepHKill, StepHByz:
			switch {
			case q == nil:
				return fmt.Errorf("chaos: %s: holder step without a quorum step", s)
			case s.Target < 1 || s.Target > q.N:
				return fmt.Errorf("chaos: %s: holder outside 1..%d", s, q.N)
			}
			if faulted[s.Epoch] == nil {
				faulted[s.Epoch] = map[int]bool{}
			}
			faulted[s.Epoch][s.Target] = true
			if n := len(faulted[s.Epoch]); n > q.N-q.T {
				return fmt.Errorf("chaos: epoch %d faults %d holders, over the n-t = %d budget", s.Epoch, n, q.N-q.T)
			}
		case StepTenants:
			switch {
			case &sc[i] != ten:
				return fmt.Errorf("chaos: %s: a second tenants step", s)
			case s.Epoch != 1:
				return fmt.Errorf("chaos: %s: the tenants are registered at epoch 1", s)
			case s.Tenants < 2 || s.Tenants > 1_000_000:
				return fmt.Errorf("chaos: %s: k must be in 2..1000000", s)
			case s.Sessions < 1 || s.Sessions > 10_000:
				return fmt.Errorf("chaos: %s: s must be in 1..10000", s)
			}
		case StepTTamper:
			switch {
			case ten == nil:
				return fmt.Errorf("chaos: %s: tenant tamper without a tenants step", s)
			case s.Target < 0 || s.Target >= ten.Tenants:
				return fmt.Errorf("chaos: %s: tenant outside 0..%d", s, ten.Tenants-1)
			}
		case StepTamper:
			if s.Blocks < 1 || s.Blocks > tamperReserve {
				return fmt.Errorf("chaos: %s: a tamper rots 1..%d blocks", s, tamperReserve)
			}
		case StepCrash:
			if _, ok := netsim.CrashPointByName(s.Point); !ok {
				return fmt.Errorf("chaos: %s: unknown crash point %q", s, s.Point)
			}
		}
	}
	return nil
}

// Validate refuses a schedule that a fleet of servers cannot run over
// epochs epochs as written: on top of validate's checks, a step past the
// last epoch (it would never run), and a server index, a skewed node or
// a cut group that names no node of the fleet. Run calls it before any
// cluster is built, so a printed repro line always states what ran.
func (sc Schedule) Validate(servers, epochs int) error {
	if err := sc.validate(); err != nil {
		return err
	}
	server := func(name string) bool {
		i, err := strconv.Atoi(name)
		return err == nil && i >= 0 && i < servers && name == nodeLabel(i)
	}
	for _, s := range sc {
		if s.Epoch > epochs {
			return fmt.Errorf("chaos: %s: past the run's last epoch %d", s, epochs)
		}
		switch s.Kind {
		case StepHeal, StepQuorum, StepHKill, StepHByz, StepTenants, StepTTamper:
		case StepSkew:
			if s.Node != "da" && !server(s.Node) {
				return fmt.Errorf("chaos: %s: node %q is neither da nor a server in 0..%d", s, s.Node, servers-1)
			}
		case StepCut:
			for _, n := range slices.Concat(s.From, s.To) {
				if n != "da" && n != "csp" && !server(n) {
					return fmt.Errorf("chaos: %s: group %q is neither da, csp nor a server in 0..%d", s, n, servers-1)
				}
			}
		default:
			if s.Target < 0 || s.Target >= servers {
				return fmt.Errorf("chaos: %s: server outside 0..%d", s, servers-1)
			}
		}
	}
	return nil
}

func parseStep(tok string) (Step, error) {
	var st Step
	rest, ok := strings.CutPrefix(tok, "e")
	if !ok {
		return st, fmt.Errorf("chaos: step %q: missing epoch prefix", tok)
	}
	epochStr, body, ok := strings.Cut(rest, ":")
	if !ok {
		return st, fmt.Errorf("chaos: step %q: missing ':'", tok)
	}
	epoch, err := strconv.Atoi(epochStr)
	if err != nil || epoch < 1 {
		return st, fmt.Errorf("chaos: step %q: bad epoch", tok)
	}
	st.Epoch = epoch

	name := body
	var args []string
	if i := strings.IndexByte(body, '('); i >= 0 {
		if !strings.HasSuffix(body, ")") {
			return st, fmt.Errorf("chaos: step %q: unclosed args", tok)
		}
		name = body[:i]
		inner := body[i+1 : len(body)-1]
		if inner != "" {
			args = strings.Split(inner, ",")
		}
	}

	kind := StepKind(0)
	for k, n := range stepNames {
		if n == name {
			kind = k
			break
		}
	}
	if kind == 0 {
		return st, fmt.Errorf("chaos: step %q: unknown kind %q", tok, name)
	}
	st.Kind = kind

	atoi := func(s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("chaos: step %q: bad int %q", tok, s)
		}
		return v, nil
	}
	rate := func(kv, key string) (float64, error) {
		val, ok := strings.CutPrefix(kv, key+"=")
		if !ok {
			return 0, fmt.Errorf("chaos: step %q: expected %s=<rate>, got %q", tok, key, kv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || !(f >= 0 && f <= 1) { // NaN too
			return 0, fmt.Errorf("chaos: step %q: bad rate %q", tok, kv)
		}
		return f, nil
	}

	switch kind {
	case StepHeal:
		if len(args) != 0 {
			return st, fmt.Errorf("chaos: step %q: heal takes no args", tok)
		}
	case StepCalm, StepKill, StepRevive, StepDiskHeal, StepRestart, StepShed, StepHKill, StepHByz, StepTTamper:
		if len(args) != 1 {
			return st, fmt.Errorf("chaos: step %q: want 1 arg", tok)
		}
		if st.Target, err = atoi(args[0]); err != nil {
			return st, err
		}
	case StepFaults:
		if len(args) != 3 {
			return st, fmt.Errorf("chaos: step %q: want faults(srv,drop=..,corrupt=..)", tok)
		}
		if st.Target, err = atoi(args[0]); err != nil {
			return st, err
		}
		if st.Drop, err = rate(args[1], "drop"); err != nil {
			return st, err
		}
		if st.Corrupt, err = rate(args[2], "corrupt"); err != nil {
			return st, err
		}
	case StepCut:
		if len(args) != 1 {
			return st, fmt.Errorf("chaos: step %q: want cut(a+b>c+d)", tok)
		}
		from, to, ok := strings.Cut(args[0], ">")
		if !ok || from == "" || to == "" {
			return st, fmt.Errorf("chaos: step %q: cut needs from>to", tok)
		}
		st.From = strings.Split(from, "+")
		st.To = strings.Split(to, "+")
	case StepSkew:
		if len(args) != 2 {
			return st, fmt.Errorf("chaos: step %q: want skew(node,dur)", tok)
		}
		st.Node = args[0]
		d, err := time.ParseDuration(args[1])
		if err != nil {
			return st, fmt.Errorf("chaos: step %q: bad duration %q", tok, args[1])
		}
		st.Skew = d
	case StepCrash:
		if len(args) != 2 {
			return st, fmt.Errorf("chaos: step %q: want crash(srv,point)", tok)
		}
		if st.Target, err = atoi(args[0]); err != nil {
			return st, err
		}
		st.Point = args[1]
	case StepDisk:
		if len(args) != 5 {
			return st, fmt.Errorf("chaos: step %q: want disk(srv,sync=..,short=..,rot=..,rename=..)", tok)
		}
		if st.Target, err = atoi(args[0]); err != nil {
			return st, err
		}
		if st.Sync, err = rate(args[1], "sync"); err != nil {
			return st, err
		}
		if st.Short, err = rate(args[2], "short"); err != nil {
			return st, err
		}
		if st.Rot, err = rate(args[3], "rot"); err != nil {
			return st, err
		}
		if st.Rename, err = rate(args[4], "rename"); err != nil {
			return st, err
		}
	case StepTamper:
		if len(args) != 2 {
			return st, fmt.Errorf("chaos: step %q: want tamper(srv,blocks)", tok)
		}
		if st.Target, err = atoi(args[0]); err != nil {
			return st, err
		}
		if st.Blocks, err = atoi(args[1]); err != nil {
			return st, err
		}
	case StepCheat:
		if len(args) != 2 {
			return st, fmt.Errorf("chaos: step %q: want cheat(srv,csc=..)", tok)
		}
		if st.Target, err = atoi(args[0]); err != nil {
			return st, err
		}
		if st.CSC, err = rate(args[1], "csc"); err != nil {
			return st, err
		}
	case StepTenants:
		if len(args) != 2 {
			return st, fmt.Errorf("chaos: step %q: want tenants(k,s)", tok)
		}
		if st.Tenants, err = atoi(args[0]); err != nil {
			return st, err
		}
		if st.Sessions, err = atoi(args[1]); err != nil {
			return st, err
		}
	case StepQuorum:
		if len(args) != 2 {
			return st, fmt.Errorf("chaos: step %q: want quorum(t,n)", tok)
		}
		if st.T, err = atoi(args[0]); err != nil {
			return st, err
		}
		if st.N, err = atoi(args[1]); err != nil {
			return st, err
		}
	case StepPlant:
		if len(args) != 2 {
			return st, fmt.Errorf("chaos: step %q: want plant(kind,srv)", tok)
		}
		st.Plant = args[0]
		switch st.Plant {
		case PlantFalseFlag, PlantLostWrite, PlantForgedEvidence:
		default:
			return st, fmt.Errorf("chaos: step %q: unknown plant %q", tok, st.Plant)
		}
		if st.Target, err = atoi(args[1]); err != nil {
			return st, err
		}
	}
	return st, nil
}

// --- generation -------------------------------------------------------------

// Generate draws a reproducible schedule from a seed: up to maxPerEpoch
// steps per active epoch, with the invariant-critical guarantee that the
// first quiet epoch (active+1) heals everything — partitions, link and
// disk faults, skew, outages — so the liveness invariant has a fair
// horizon. Crashed servers are restarted by the nemesis at epoch
// boundaries, and a shed, a cheat or a holder fault lasts one epoch, so
// none needs a step to undo it. With tamper set the schedule carries a
// real storage cheater and, every active epoch, a computation cheater on
// a freshly drawn server: the mobile adversary of §III-B on both halves.
func Generate(seed int64, servers, activeEpochs, maxPerEpoch int, tamper bool) Schedule {
	rng := rand.New(rand.NewSource(seed))
	var sched Schedule

	type diskState struct{ sick bool }
	faulted := map[int]bool{}
	disks := make([]diskState, servers)
	killed := map[int]bool{}
	skewed := map[string]bool{}
	anyCut := false

	kinds := []StepKind{StepFaults, StepCut, StepSkew, StepCrash, StepKill, StepDisk, StepRestart, StepShed}

	tamperEpoch := 0
	if tamper {
		tamperEpoch = 1 + rng.Intn(maxInt(1, activeEpochs-1))
	}

	nodeName := func(i int) string { return strconv.Itoa(i) }
	crashPoints := netsim.CrashPoints()

	for ep := 1; ep <= activeEpochs; ep++ {
		if ep == tamperEpoch {
			// Rot the whole reserved range: a cheater that corrupts a single
			// block of thousands is Theorem 3's problem (sampling theory);
			// the chaos gate's problem is proving weather never masks or
			// mimics a cheater, so the tamper is made big enough that the
			// per-run sample budget cannot plausibly miss it.
			sched = append(sched, Step{
				Epoch: ep, Kind: StepTamper,
				Target: rng.Intn(servers), Blocks: tamperReserve,
			})
		}
		if tamper {
			sched = append(sched, Step{
				Epoch: ep, Kind: StepCheat,
				Target: rng.Intn(servers), CSC: float64(rng.Intn(3)) / 4, // 0, 0.25 or 0.5
			})
		}
		// Undo moves first: previously injected faults may clear early.
		// Iteration must be by index, never over a map — a map-ordered rng
		// draw sequence would break Generate's seed determinism.
		for srv := 0; srv < servers; srv++ {
			if faulted[srv] && rng.Float64() < 0.35 {
				sched = append(sched, Step{Epoch: ep, Kind: StepCalm, Target: srv})
				delete(faulted, srv)
			}
		}
		if anyCut && rng.Float64() < 0.4 {
			sched = append(sched, Step{Epoch: ep, Kind: StepHeal})
			anyCut = false
		}
		for srv := 0; srv < servers; srv++ {
			if killed[srv] && rng.Float64() < 0.5 {
				sched = append(sched, Step{Epoch: ep, Kind: StepRevive, Target: srv})
				delete(killed, srv)
			}
		}
		for i := range disks {
			if disks[i].sick && rng.Float64() < 0.4 {
				sched = append(sched, Step{Epoch: ep, Kind: StepDiskHeal, Target: i})
				disks[i].sick = false
			}
		}

		for n := rng.Intn(maxPerEpoch + 1); n > 0; n-- {
			switch kinds[rng.Intn(len(kinds))] {
			case StepFaults:
				srv := rng.Intn(servers)
				sched = append(sched, Step{
					Epoch: ep, Kind: StepFaults, Target: srv,
					Drop:    float64(rng.Intn(25)+5) / 100, // 0.05–0.29
					Corrupt: float64(rng.Intn(15)) / 100,   // 0–0.14
				})
				faulted[srv] = true
			case StepCut:
				// One directed group cut: a side (da, csp, or both) loses
				// its path to a random nonempty strict subset of servers,
				// in one direction — the asymmetric case — or both.
				var grp []string
				for i := 0; i < servers; i++ {
					if rng.Intn(2) == 0 {
						grp = append(grp, nodeName(i))
					}
				}
				if len(grp) == 0 || len(grp) == servers {
					grp = []string{nodeName(rng.Intn(servers))}
				}
				var side []string
				switch rng.Intn(3) {
				case 0:
					side = []string{"da"}
				case 1:
					side = []string{"csp"}
				default:
					side = []string{"da", "csp"}
				}
				if rng.Intn(2) == 0 { // direction
					sched = append(sched, Step{Epoch: ep, Kind: StepCut, From: side, To: grp})
				} else {
					sched = append(sched, Step{Epoch: ep, Kind: StepCut, From: grp, To: side})
				}
				anyCut = true
			case StepSkew:
				node := "da"
				if rng.Intn(servers+1) > 0 {
					node = nodeName(rng.Intn(servers))
				}
				ms := rng.Intn(201) - 100 // −100ms..+100ms
				sched = append(sched, Step{
					Epoch: ep, Kind: StepSkew, Node: node,
					Skew: time.Duration(ms) * time.Millisecond,
				})
				skewed[node] = ms != 0
			case StepCrash:
				sched = append(sched, Step{
					Epoch: ep, Kind: StepCrash, Target: rng.Intn(servers),
					Point: crashPoints[rng.Intn(len(crashPoints))].String(),
				})
			case StepKill:
				// Keep a majority of replicas reachable so quorum
				// cross-examination stays meaningful.
				if len(killed)+1 > (servers-1)/2 {
					continue
				}
				srv := rng.Intn(servers)
				if killed[srv] {
					continue
				}
				sched = append(sched, Step{Epoch: ep, Kind: StepKill, Target: srv})
				killed[srv] = true
			case StepDisk:
				srv := rng.Intn(servers)
				sched = append(sched, Step{
					Epoch: ep, Kind: StepDisk, Target: srv,
					Sync:   float64(rng.Intn(30)) / 100,
					Short:  float64(rng.Intn(20)) / 100,
					Rot:    float64(rng.Intn(30)) / 100,
					Rename: float64(rng.Intn(30)) / 100,
				})
				disks[srv].sick = true
			case StepRestart:
				srv := rng.Intn(servers)
				if killed[srv] {
					continue
				}
				sched = append(sched, Step{Epoch: ep, Kind: StepRestart, Target: srv})
			case StepShed:
				sched = append(sched, Step{Epoch: ep, Kind: StepShed, Target: rng.Intn(servers)})
			}
		}
	}

	// Quiet-phase cleanup: everything heals at activeEpochs+1.
	cleanup := activeEpochs + 1
	if anyCut {
		sched = append(sched, Step{Epoch: cleanup, Kind: StepHeal})
	}
	for srv := 0; srv < servers; srv++ {
		if faulted[srv] {
			sched = append(sched, Step{Epoch: cleanup, Kind: StepCalm, Target: srv})
		}
		if disks[srv].sick {
			sched = append(sched, Step{Epoch: cleanup, Kind: StepDiskHeal, Target: srv})
		}
		if killed[srv] {
			sched = append(sched, Step{Epoch: cleanup, Kind: StepRevive, Target: srv})
		}
	}
	// Deterministic node order ("da" first, then servers by index): the
	// skewed set is a map, and map order must never reach the schedule.
	if skewed["da"] {
		sched = append(sched, Step{Epoch: cleanup, Kind: StepSkew, Node: "da", Skew: 0})
	}
	for i := 0; i < servers; i++ {
		if skewed[nodeName(i)] {
			sched = append(sched, Step{Epoch: cleanup, Kind: StepSkew, Node: nodeName(i), Skew: 0})
		}
	}

	// The DA's shape and its holders' weather come from streams of their
	// own, so a seed's server-side steps are the same with or without a
	// quorum: about half the seeds deal the key 2-of-3, and each active
	// epoch faults at most the n−t holders a quorum survives.
	if rand.New(rand.NewSource(subSeed(seed, "quorum", 0, 0))).Intn(2) == 0 {
		const t, n = 2, 3
		sched = append(Schedule{{Epoch: 1, Kind: StepQuorum, T: t, N: n}}, sched...)
		for ep := 1; ep <= activeEpochs; ep++ {
			hr := rand.New(rand.NewSource(subSeed(seed, "holders", ep, 0)))
			for _, h := range hr.Perm(n)[:hr.Intn(n-t+1)] {
				kind := StepHKill
				if hr.Intn(2) == 0 {
					kind = StepHByz
				}
				sched = append(sched, Step{Epoch: ep, Kind: kind, Target: h + 1})
			}
		}
	}
	// Tenant traffic too: about a quarter of the seeds register 10⁴
	// tenants and drain 8 of their sessions an epoch, and with tamper the
	// traffic head's data rots at a drawn active epoch.
	if tr := rand.New(rand.NewSource(subSeed(seed, "tenant-shape", 0, 0))); tr.Intn(4) == 0 {
		sched = append(Schedule{{Epoch: 1, Kind: StepTenants, Tenants: 10_000, Sessions: 8}}, sched...)
		if tamper {
			sched = append(sched, Step{Epoch: 1 + tr.Intn(activeEpochs), Kind: StepTTamper, Target: 0})
		}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Epoch < sched[j].Epoch })
	return sched
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
