// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) from this implementation:
//
//	Table I  — primitive operation times (measured here vs. paper's MIRACL)
//	Table II — individual vs batch verification across signature schemes
//	Figure 4 — required sample size surface t(SSC, CSC) at ε = 10⁻⁴
//	Figure 5 — DA verification cost vs number of cloud users
//
// plus two extensions the paper motivates but does not plot:
//
//	Detection — Monte-Carlo detection rates of live cheating servers vs
//	            the analytic eq. 10/12 predictions
//	Optimal-t — Theorem 3's cost-optimal sample size across stakes
//
// Each experiment returns printable rows; cmd/seccloud-bench renders them
// and EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"crypto/rand"
	"fmt"
	"math"
	"time"

	"seccloud/internal/baseline"
	"seccloud/internal/costmodel"
	"seccloud/internal/curve"
	"seccloud/internal/dvs"
	"seccloud/internal/ibc"
	"seccloud/internal/pairing"
	"seccloud/internal/sampling"
)

// Table1Row is one primitive-operation measurement.
type Table1Row struct {
	Op       string
	Measured time.Duration
	Paper    time.Duration // zero when the paper did not report it
}

// Table1 measures the primitive operations (the paper's Table I) on the
// given parameter set.
func Table1(pp *pairing.Params, iters int) ([]Table1Row, error) {
	ops, err := costmodel.Measure(pp, iters)
	if err != nil {
		return nil, err
	}
	ref := costmodel.PaperTableI()
	return []Table1Row{
		{Op: "point multiplication (T_pmul)", Measured: ops.PointMul, Paper: ref.PointMul},
		{Op: "pairing (T_pair)", Measured: ops.Pairing, Paper: ref.Pairing},
		{Op: "hash-to-point (H1)", Measured: ops.HashToPoint},
		{Op: "GT multiplication", Measured: ops.GTMul},
	}, nil
}

// Table2Row is one scheme's verification cost at a batch size. The
// pairing counts carry the paper's actual Table II claim (pairings
// constant for our batch); wall-clock additionally includes the linear
// point-multiplication and hashing terms the paper's model omits.
type Table2Row struct {
	Scheme     string
	BatchSize  int
	Individual time.Duration // total time to verify the batch one by one
	Batch      time.Duration // total time for batch verification (0 = n/a)
	PairsIndiv int           // pairing count, individual path
	PairsBatch int           // pairing count, batch path (0 = n/a)
}

// Table2 measures individual vs batch verification for RSA, ECDSA, BGLS
// and the SecCloud designated-verifier scheme at each batch size. Each
// cell is the fastest of table2Runs timed runs.
func Table2(pp *pairing.Params, taus []int) ([]Table2Row, error) {
	maxTau := 0
	for _, tau := range taus {
		if tau > maxTau {
			maxTau = tau
		}
	}
	if maxTau == 0 {
		return nil, fmt.Errorf("experiments: no batch sizes given")
	}

	msgs := make([][]byte, maxTau)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("table-ii message %d", i))
	}

	var rows []Table2Row

	// RSA (individual only).
	rsaSigner, err := baseline.NewRSASigner(rand.Reader, 1024)
	if err != nil {
		return nil, err
	}
	rsaSigs := make([][]byte, maxTau)
	for i := range msgs {
		if rsaSigs[i], err = rsaSigner.Sign(rand.Reader, msgs[i]); err != nil {
			return nil, err
		}
	}
	for _, tau := range taus {
		indiv, err := fastestRun(func() error {
			for i := 0; i < tau; i++ {
				if err := rsaSigner.Verify(msgs[i], rsaSigs[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{Scheme: "RSA", BatchSize: tau, Individual: indiv})
	}

	// ECDSA (individual only).
	ecSigner, err := baseline.NewECDSASigner(rand.Reader)
	if err != nil {
		return nil, err
	}
	ecSigs := make([][]byte, maxTau)
	for i := range msgs {
		if ecSigs[i], err = ecSigner.Sign(rand.Reader, msgs[i]); err != nil {
			return nil, err
		}
	}
	for _, tau := range taus {
		indiv, err := fastestRun(func() error {
			for i := 0; i < tau; i++ {
				if err := ecSigner.Verify(msgs[i], ecSigs[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{Scheme: "ECDSA", BatchSize: tau, Individual: indiv})
	}

	// BGLS.
	bgls := baseline.NewBGLS(pp)
	bglsKeys := make([]*baseline.BGLSKey, maxTau)
	bglsSigs := make([]*curve.Point, maxTau)
	bglsPKs := make([]*curve.Point, maxTau)
	for i := range msgs {
		k, err := bgls.KeyGen(rand.Reader)
		if err != nil {
			return nil, err
		}
		bglsKeys[i] = k
		bglsPKs[i] = k.PK
		bglsSigs[i] = bgls.Sign(k, msgs[i])
	}
	for _, tau := range taus {
		indiv, err := fastestRun(func() error {
			for i := 0; i < tau; i++ {
				if err := bgls.Verify(bglsPKs[i], msgs[i], bglsSigs[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		agg, err := bgls.Aggregate(msgs[:tau], bglsSigs[:tau])
		if err != nil {
			return nil, err
		}
		batch, err := fastestRun(func() error { return bgls.AggregateVerify(bglsPKs[:tau], msgs[:tau], agg) })
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Scheme: "BGLS", BatchSize: tau, Individual: indiv, Batch: batch,
			PairsIndiv: costmodel.BGLSIndividual(tau).Pairings,
			PairsBatch: costmodel.BGLSBatch(tau).Pairings,
		})
	}

	// Ours (designated verification, eq. 7 / eq. 8).
	sio, err := ibc.Setup(pp, rand.Reader)
	if err != nil {
		return nil, err
	}
	scheme := dvs.NewScheme(sio.Params())
	verifier, err := sio.Extract("da:bench")
	if err != nil {
		return nil, err
	}
	signer, err := sio.Extract("user:bench")
	if err != nil {
		return nil, err
	}
	ourSigs := make([]*dvs.Designated, maxTau)
	for i := range msgs {
		ds, err := scheme.SignDesignated(signer, msgs[i], rand.Reader, verifier.ID)
		if err != nil {
			return nil, err
		}
		ourSigs[i] = ds[0]
	}
	for _, tau := range taus {
		indiv, err := fastestRun(func() error {
			for i := 0; i < tau; i++ {
				if err := scheme.Verify(ourSigs[i], msgs[i], verifier); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		items := make([]dvs.BatchItem, tau)
		for i := 0; i < tau; i++ {
			items[i] = dvs.NewBatchItem(msgs[i], ourSigs[i])
		}
		batch, err := fastestRun(func() error { return scheme.BatchVerify(items, verifier) })
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Scheme: "SecCloud (ours)", BatchSize: tau, Individual: indiv, Batch: batch,
			PairsIndiv: costmodel.OursIndividual(tau).Pairings,
			PairsBatch: costmodel.OursBatch(tau).Pairings,
		})
	}
	return rows, nil
}

// table2Runs is how many times Table2 times each cell; the cell is the
// fastest run, so one descheduled run on a busy machine does not decide
// which of two cells is faster.
const table2Runs = 5

// fastestRun returns the shortest wall time of table2Runs runs of fn.
func fastestRun(fn func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < table2Runs; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// Fig4Row is one line of the Figure 4 surface at a fixed SSC.
type Fig4Row struct {
	SSC    string
	Values []string // required t per CSC column; "-" where unreachable
}

// Fig4 renders the required-sample-size surface as a grid with the given
// step, plus the column header.
func Fig4(r float64, epsilon, step float64) (header []string, rows []Fig4Row, err error) {
	pts, err := sampling.Fig4Surface(r, epsilon, step)
	if err != nil {
		return nil, nil, err
	}
	cols := int(math.Round(1/step)) + 1
	header = make([]string, 0, cols)
	for c := 0; c < cols; c++ {
		header = append(header, fmt.Sprintf("CSC=%.2f", float64(c)*step))
	}
	for i := 0; i < len(pts); i += cols {
		row := Fig4Row{SSC: fmt.Sprintf("%.2f", pts[i].SSC)}
		for c := 0; c < cols && i+c < len(pts); c++ {
			if pts[i+c].T < 0 {
				row.Values = append(row.Values, "-")
			} else {
				row.Values = append(row.Values, fmt.Sprintf("%d", pts[i+c].T))
			}
		}
		rows = append(rows, row)
	}
	return header, rows, nil
}

// Fig5Row is one point of the verification-cost-vs-users curve.
type Fig5Row struct {
	Users          int
	OursMeasured   time.Duration // real batch verification over all users
	OursModel      time.Duration // analytic: 2 pairings + k muls
	Wang09Model    time.Duration // analytic [5]: 2k pairings
	Wang10Model    time.Duration // analytic [4]: 2k pairings + masking
	OursPairings   int
	TheirsPairings int
}

// Fig5 measures our batch verification for k users (one designated
// signature each) and evaluates the comparator models at this host's
// measured op times — the paper's exact methodology.
func Fig5(pp *pairing.Params, userCounts []int, calibIters int) ([]Fig5Row, error) {
	ops, err := costmodel.Measure(pp, calibIters)
	if err != nil {
		return nil, err
	}
	maxUsers := 0
	for _, k := range userCounts {
		if k > maxUsers {
			maxUsers = k
		}
	}
	sio, err := ibc.Setup(pp, rand.Reader)
	if err != nil {
		return nil, err
	}
	scheme := dvs.NewScheme(sio.Params())
	verifier, err := sio.Extract("da:fig5")
	if err != nil {
		return nil, err
	}
	items := make([]dvs.BatchItem, maxUsers)
	for i := 0; i < maxUsers; i++ {
		signer, err := sio.Extract(fmt.Sprintf("user:%d", i))
		if err != nil {
			return nil, err
		}
		msg := []byte(fmt.Sprintf("user %d auditing session", i))
		ds, err := scheme.SignDesignated(signer, msg, rand.Reader, verifier.ID)
		if err != nil {
			return nil, err
		}
		items[i] = dvs.NewBatchItem(msg, ds[0])
	}
	rows := make([]Fig5Row, 0, len(userCounts))
	for _, k := range userCounts {
		start := time.Now()
		if err := scheme.BatchVerify(items[:k], verifier); err != nil {
			return nil, err
		}
		measured := time.Since(start)
		rows = append(rows, Fig5Row{
			Users:          k,
			OursMeasured:   measured,
			OursModel:      costmodel.Fig5Ours(k).Cost(ops),
			Wang09Model:    costmodel.Fig5Wang09(k).Cost(ops),
			Wang10Model:    costmodel.Fig5Wang10(k).Cost(ops),
			OursPairings:   costmodel.Fig5Ours(k).Pairings,
			TheirsPairings: costmodel.Fig5Wang09(k).Pairings,
		})
	}
	return rows, nil
}
