package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// calibrate measures the benchmark's own noise the way a driver would see
// it: two sets of calRuns single-workload invocations of this executable,
// each with another seed, workloads interleaved. Per workload and metric it
// prints each set's median and spread (interquartile range over median) and
// how far the second median moved from the first, as a markdown table. A
// bound belongs at or above twice that move and at or above the larger
// spread; README.md carries the table the declared bounds rest on.
const calRuns = 10

func calibrate(names []string, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := 0; i < calRuns; i++ {
			for _, w := range names {
				seed := 1 + set*calRuns + i
				cmd := exec.Command(exe, "--workload", w, "--seed", strconv.Itoa(seed),
					"--seconds", strconv.Itoa(seconds), "--trace", "0")
				cmd.Stderr = os.Stderr
				outb, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(outb), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d ops failed", w, seed, res.Failed, res.Attempted)
				}
				if values[set][w] == nil {
					values[set][w] = map[string][]float64{}
				}
				for name, v := range res.Metrics {
					values[set][w][name] = append(values[set][w][name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "calibrate: set %d run %d %s:", set+1, i+1, w)
				for _, d := range endToEnd {
					fmt.Fprintf(os.Stderr, " %s %.6g", d.Name, res.Metrics[d.Name].Value)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	fmt.Println("| workload | metric | set 1 median | set 1 IQR/median | set 2 median | set 2 IQR/median | set 2 worse by | bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	for _, w := range names {
		for _, d := range endToEnd {
			m1, s1 := medianSpread(values[0][w][d.Name])
			m2, s2 := medianSpread(values[1][w][d.Name])
			worse := (m2 - m1) / m1
			if d.Better == higher {
				worse = -worse
			}
			flag := ""
			if need := math.Max(2*worse, math.Max(s1, s2)); need > d.Bound {
				flag = fmt.Sprintf(" (needs %.3f)", need)
			}
			fmt.Printf("| %s | %s | %.6g | %.4f | %.6g | %.4f | %+.4f | %.2f%s |\n",
				w, d.Name, m1, s1, m2, s2, worse, d.Bound, flag)
		}
	}
	return nil
}

// medianSpread returns the median and the distance between the first and
// third quartile as a share of it, quartiles as Python's
// statistics.quantiles(xs, n=4) gives them.
func medianSpread(xs []float64) (med, spread float64) {
	q := quartiles(xs)
	return q[1], (q[2] - q[0]) / q[1]
}
