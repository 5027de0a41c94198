package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOutput is the JSON line a run prints last.
type runOutput struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// steady runs every workload in two sets of runs, interleaved so drift
// on the host lands on both sets alike, each run with its own seed. For
// each end-to-end metric it prints each set's median and quartiles, the
// spread over all runs, and whether the two medians agree within the
// metric's bound from BENCHMARK.json and the spread stays under a third
// of it. Bounds are chosen from this output.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	var (
		runs    = fs.Int("runs", 5, "runs per set and workload")
		seconds = fs.Int("seconds", 15, "--seconds of each run")
		only    = fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
		spec    = fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
		firstSd = fs.Uint64("first-seed", 101, "seed of the first run; each run takes the next")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile(*spec)
	if err != nil {
		return err
	}
	var sp benchSpec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", *spec, err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// Every run's result line is kept next to the build, for a closer
	// look at how the figures moved from run to run.
	log, err := os.Create(filepath.Join(filepath.Dir(filepath.Dir(self)), "steady.jsonl"))
	if err != nil {
		return err
	}
	defer log.Close()
	// vals[workload][metric][set] holds one value per run.
	vals := make(map[string]map[string][2][]float64)
	failShare := make(map[string][2][]float64)
	seed := *firstSd
	for r := 0; r < *runs; r++ {
		for set := 0; set < 2; set++ {
			for _, wl := range names {
				out, err := runOnce(self, wl, seed, *seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl, seed, err)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s seed %d: correct=%v attempted=%d failed=%d\n",
					set, r, wl, seed, out.Correct, out.Attempted, out.Failed)
				line, _ := json.Marshal(struct {
					Set, Run int
					Workload string
					Seed     uint64
					Result   runOutput
				}{set, r, wl, seed, out})
				fmt.Fprintln(log, string(line))
				seed++
				if vals[wl] == nil {
					vals[wl] = make(map[string][2][]float64)
				}
				for name, m := range out.Metrics {
					v := vals[wl][name]
					v[set] = append(v[set], m.Value)
					vals[wl][name] = v
				}
				f := failShare[wl]
				f[set] = append(f[set], float64(out.Failed)/float64(out.Attempted))
				failShare[wl] = f
			}
		}
	}
	allOK := true
	for _, wl := range names {
		fmt.Printf("\n%s (%d runs per set)\n", wl, *runs)
		fmt.Printf("  %-22s %-10s %30s %30s %8s %7s %6s %s\n", "metric", "unit", "set A median [q1, q3]", "set B median [q1, q3]", "spread", "bound", "shift", "verdict")
		for _, m := range sp.EndToEnd {
			v := vals[wl][m.Name]
			if len(v[0]) < 2 || len(v[1]) < 2 {
				fmt.Printf("  %-22s missing\n", m.Name)
				allOK = false
				continue
			}
			a1, am, a3, _ := quartiles(v[0])
			b1, bm, b3, _ := quartiles(v[1])
			spread, _ := spreadShare(append(append([]float64(nil), v[0]...), v[1]...))
			shift := worseShare(am, bm, m.Better)
			verdict := "ok"
			switch {
			case !agree(am, bm, m.Bound):
				verdict = "MEDIANS DISAGREE"
			case m.Name != "setup_s" && spread > m.Bound:
				verdict = "SPREAD OVER BOUND"
			case m.Name != "setup_s" && spread > m.Bound/3:
				verdict = "spread over bound/3"
			}
			if verdict != "ok" {
				allOK = false
			}
			fmt.Printf("  %-22s %-10s %12.4g [%7.4g,%7.4g] %12.4g [%7.4g,%7.4g] %7.2f%% %6.0f%% %+5.1f%% %s\n",
				m.Name, m.Unit, am, a1, a3, bm, b1, b3, 100*spread, 100*m.Bound, 100*shift, verdict)
		}
		f := failShare[wl]
		fmt.Printf("  failed share: set A %v, set B %v\n", uniq(f[0]), uniq(f[1]))
	}
	if !allOK {
		return fmt.Errorf("not steady")
	}
	return nil
}

func uniq(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != s[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// runOnce runs this binary on one workload and parses its last line.
func runOnce(self, wl string, seed uint64, seconds int) (runOutput, error) {
	cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return runOutput{}, fmt.Errorf("%w\n%s", err, stdout.String())
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
		}
	}
	var out runOutput
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return out, fmt.Errorf("parsing %q: %w", last, err)
	}
	return out, nil
}
