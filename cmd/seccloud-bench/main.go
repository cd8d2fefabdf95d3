// Command seccloud-bench regenerates the paper's evaluation tables and
// figures from this implementation.
//
// Usage:
//
//	seccloud-bench -exp all                # everything (default)
//	seccloud-bench -exp table1             # primitive op times
//	seccloud-bench -exp table2             # individual vs batch verify
//	seccloud-bench -exp fig4               # sample-size surface
//	seccloud-bench -exp fig5               # verify cost vs users
//	seccloud-bench -exp detection          # Monte-Carlo vs eq. 10
//	seccloud-bench -exp optimal-t          # Theorem 3 sweep
//	seccloud-bench -exp traffic            # audit bytes vs sample size (eq. 17)
//	seccloud-bench -exp epochs             # mobile adversary: exposure vs t
//	seccloud-bench -params ss512           # use the full-size pairing
//	seccloud-bench -csv                    # machine-readable output
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"seccloud/internal/chaos"
	"seccloud/internal/experiments"
	"seccloud/internal/pairing"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|table2|fig4|fig5|detection|optimal-t|traffic|epochs|all")
	params := flag.String("params", "ss512", "pairing parameter set: ss512|test256")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	iters := flag.Int("iters", 10, "calibration iterations for op timing")
	trials := flag.Int("trials", 200, "Monte-Carlo trials per detection row")
	flag.Parse()

	pp, err := pairing.ByName(*params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seccloud-bench:", err)
		os.Exit(1)
	}
	r := &runner{pp: pp, csv: *csv, iters: *iters, trials: *trials}

	var runErr error
	switch *exp {
	case "table1":
		runErr = r.table1()
	case "table2":
		runErr = r.table2()
	case "fig4":
		runErr = r.fig4()
	case "fig5":
		runErr = r.fig5()
	case "detection":
		runErr = r.detection()
	case "optimal-t":
		runErr = r.optimalT()
	case "traffic":
		runErr = r.traffic()
	case "epochs":
		runErr = r.epochs()
	case "all":
		for _, f := range []func() error{
			r.table1, r.table2, r.fig4, r.fig5, r.detection, r.optimalT, r.traffic, r.epochs,
		} {
			if runErr = f(); runErr != nil {
				break
			}
		}
	default:
		runErr = fmt.Errorf("unknown experiment %q", *exp)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "seccloud-bench:", runErr)
		os.Exit(1)
	}
}

type runner struct {
	pp     *pairing.Params
	csv    bool
	iters  int
	trials int
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}

func (r *runner) header(title string) {
	if !r.csv {
		fmt.Printf("\n=== %s (params: %s) ===\n", title, r.pp.Name())
	}
}

func (r *runner) table1() error {
	r.header("Table I — cryptographic operation execution time")
	rows, err := experiments.Table1(r.pp, r.iters)
	if err != nil {
		return err
	}
	if r.csv {
		fmt.Println("table1,op,measured_ms,paper_ms")
		for _, row := range rows {
			fmt.Printf("table1,%s,%s,%s\n", row.Op, ms(row.Measured), ms(row.Paper))
		}
		return nil
	}
	fmt.Printf("%-34s %14s %16s\n", "operation", "measured (ms)", "paper 2010 (ms)")
	for _, row := range rows {
		paper := "-"
		if row.Paper > 0 {
			paper = ms(row.Paper)
		}
		fmt.Printf("%-34s %14s %16s\n", row.Op, ms(row.Measured), paper)
	}
	return nil
}

func (r *runner) table2() error {
	r.header("Table II — individual vs batch verification")
	taus := []int{1, 5, 10, 25, 50}
	rows, err := experiments.Table2(r.pp, taus)
	if err != nil {
		return err
	}
	if r.csv {
		fmt.Println("table2,scheme,batch_size,individual_ms,batch_ms,pairings_individual,pairings_batch")
		for _, row := range rows {
			fmt.Printf("table2,%s,%d,%s,%s,%d,%d\n", row.Scheme, row.BatchSize,
				ms(row.Individual), ms(row.Batch), row.PairsIndiv, row.PairsBatch)
		}
		return nil
	}
	fmt.Printf("%-18s %6s %18s %14s %12s\n", "scheme", "τ", "individual (ms)", "batch (ms)", "pairings")
	for _, row := range rows {
		batch, pairs := "n/a", "n/a"
		if row.Batch > 0 {
			batch = ms(row.Batch)
			pairs = fmt.Sprintf("%d→%d", row.PairsIndiv, row.PairsBatch)
		}
		fmt.Printf("%-18s %6d %18s %14s %12s\n", row.Scheme, row.BatchSize, ms(row.Individual), batch, pairs)
	}
	fmt.Println("paper claim (pairing counts): ours 2τ→2 flat; BGLS 2τ→τ+1; wall-clock adds the")
	fmt.Println("linear point-mul/hash terms the paper's model omits, so measured batch grows mildly")
	return nil
}

func (r *runner) fig4() error {
	r.header("Figure 4 — required sample size for ε = 1e-4")
	for _, rr := range []float64{2, 1e9} {
		label := fmt.Sprintf("R = %.0f", rr)
		if rr >= 1e9 {
			label = "R → ∞"
		}
		header, rows, err := experiments.Fig4(rr, 1e-4, 0.1)
		if err != nil {
			return err
		}
		if r.csv {
			for _, row := range rows {
				fmt.Printf("fig4,%s,SSC=%s,%s\n", label, row.SSC, strings.Join(row.Values, ","))
			}
			continue
		}
		fmt.Printf("\n-- %s --\n%8s", label, "SSC\\CSC")
		for _, h := range header {
			fmt.Printf("%9s", strings.TrimPrefix(h, "CSC="))
		}
		fmt.Println()
		for _, row := range rows {
			fmt.Printf("%8s", row.SSC)
			for _, v := range row.Values {
				fmt.Printf("%9s", v)
			}
			fmt.Println()
		}
	}
	if !r.csv {
		fmt.Println("\npaper spot checks: t = 33 at CSC = SSC = 0.5, R = 2; t = 15 as R → ∞")
	}
	return nil
}

func (r *runner) fig5() error {
	r.header("Figure 5 — DA verification cost vs number of cloud users")
	users := []int{1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	rows, err := experiments.Fig5(r.pp, users, r.iters)
	if err != nil {
		return err
	}
	if r.csv {
		fmt.Println("fig5,users,ours_measured_ms,ours_model_ms,wang09_model_ms,wang10_model_ms")
		for _, row := range rows {
			fmt.Printf("fig5,%d,%s,%s,%s,%s\n", row.Users, ms(row.OursMeasured),
				ms(row.OursModel), ms(row.Wang09Model), ms(row.Wang10Model))
		}
		return nil
	}
	fmt.Printf("%6s %17s %15s %16s %16s %10s\n",
		"users", "ours meas. (ms)", "ours mdl (ms)", "[5]'09 mdl (ms)", "[4]'10 mdl (ms)", "pairings")
	for _, row := range rows {
		fmt.Printf("%6d %17s %15s %16s %16s %6d/%d\n",
			row.Users, ms(row.OursMeasured), ms(row.OursModel),
			ms(row.Wang09Model), ms(row.Wang10Model),
			row.OursPairings, row.TheirsPairings)
	}
	fmt.Println("expected shape: ours ~flat (2 pairings); comparators linear in users")
	return nil
}

func (r *runner) detection() error {
	r.header("Detection — live Monte-Carlo vs eq. 10 (R = 2 guessing)")
	rows, err := experiments.Detection(r.pp, experiments.DetectionConfig{
		Blocks:      24,
		Trials:      r.trials,
		SampleSizes: []int{1, 2, 4, 8, 16},
		Seed:        1,
	})
	if err != nil {
		return err
	}
	if r.csv {
		fmt.Println("detection,csc,t,analytic_survival,empirical_survival,trials")
		for _, row := range rows {
			fmt.Printf("detection,%.2f,%d,%.4f,%.4f,%d\n",
				row.CSC, row.T, row.Analytic, row.Empiric, row.Trials)
		}
		return nil
	}
	fmt.Printf("%6s %4s %22s %22s\n", "CSC", "t", "analytic survival", "empirical survival")
	for _, row := range rows {
		fmt.Printf("%6.2f %4d %22.4f %22.4f\n", row.CSC, row.T, row.Analytic, row.Empiric)
	}
	return nil
}

func (r *runner) optimalT() error {
	r.header("Optimal t — Theorem 3 closed form vs brute force")
	rows, err := experiments.OptimalT()
	if err != nil {
		return err
	}
	if r.csv {
		fmt.Println("optimalt,q,cheat_loss,t_closed,t_brute,cost")
		for _, row := range rows {
			fmt.Printf("optimalt,%.2f,%.0e,%d,%d,%.0f\n",
				row.Q, row.CheatLoss, row.TClosed, row.TBrute, row.CostAtT)
		}
		return nil
	}
	fmt.Printf("%6s %12s %10s %9s %14s\n", "q", "cheat loss", "t closed", "t brute", "cost at t*")
	for _, row := range rows {
		fmt.Printf("%6.2f %12.0e %10d %9d %14.0f\n",
			row.Q, row.CheatLoss, row.TClosed, row.TBrute, row.CostAtT)
	}
	return nil
}

func (r *runner) traffic() error {
	r.header("Traffic — audit transmission cost vs sample size (eq. 17 C_trans)")
	rows, err := experiments.Traffic(r.pp, 64, []int{1, 2, 4, 8, 16, 32, 64})
	if err != nil {
		return err
	}
	if r.csv {
		fmt.Println("traffic,sample_size,total_bytes,bytes_per_item")
		for _, row := range rows {
			fmt.Printf("traffic,%d,%d,%.0f\n", row.SampleSize, row.TotalBytes, row.BytesPerItem)
		}
		return nil
	}
	fmt.Printf("%8s %14s %18s\n", "t", "total bytes", "marginal bytes/item")
	for _, row := range rows {
		fmt.Printf("%8d %14d %18.0f\n", row.SampleSize, row.TotalBytes, row.BytesPerItem)
	}
	fmt.Println("expected shape: linear in t with a constant per-item slope — the paper's")
	fmt.Println("constant C_trans per sampled message-signature pair")
	return nil
}

// epochs runs the mobile adversary (n = 4, b = 1, CSC = 0.5, four
// epochs) through the chaos fleet simulator once per audit budget t: the
// same schedule and seed every time, so only t moves the numbers.
func (r *runner) epochs() error {
	r.header("Epochs — mobile b-of-n adversary: exposure vs audit budget")
	if r.csv {
		fmt.Println("epochs,t,job_audits,detections,exposure,false_flags")
	} else {
		fmt.Printf("%8s %12s %12s %12s %12s\n", "t", "job audits", "detections", "exposure", "false flags")
	}
	sched, err := chaos.Mobile(1, 4, 1, 4, 0.5)
	if err != nil {
		return err
	}
	for _, t := range []int{1, 2, 3} {
		cfg := chaos.Defaults(1)
		cfg.Servers, cfg.Blocks, cfg.ActiveEpochs, cfg.QuietEpochs = 4, 12, 4, 1
		cfg.SampleSize, cfg.Schedule = t, sched
		rep, err := chaos.Run(cfg)
		if err != nil {
			return err
		}
		if !rep.OK() {
			return fmt.Errorf("t=%d: invariants violated: %v", t, rep.Violations)
		}
		if r.csv {
			fmt.Printf("epochs,%d,%d,%d,%d,%d\n", t, rep.JobAudits, rep.JobDetections, rep.Exposure, rep.FalseFlags)
			continue
		}
		fmt.Printf("%8d %12d %12d %12d %12d\n", t, rep.JobAudits, rep.JobDetections, rep.Exposure, rep.FalseFlags)
	}
	return nil
}
