package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json repeat mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// repeat runs each selected workload o.repeat times, each in a fresh
// process with seeds o.seed, o.seed+1, ..., prints each run's metrics,
// and then per metric the median, quartiles and spread (interquartile
// distance over median),
// flagging any end-to-end spread beyond its BENCHMARK.json bound
// (setup_s excepted, whose spread is not bounded). It exits non-zero
// if any run failed or any spread is over its bound.
func repeat(o options) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	var spec benchSpec
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading BENCHMARK.json:", err)
		return 1
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	status := 0
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	units := map[string]string{}
	// Workloads take turns run by run, so drift in the host's speed
	// over the repeats reaches every workload alike.
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + uint64(i)
		for _, name := range names {
			cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace), "--commit", o.commit)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err == nil {
				err = json.Unmarshal(lines[len(lines)-1], &res)
			}
			if err != nil || !res.Correct {
				fmt.Printf("%s seed %d: FAILED (%v, %d of %d ops failed)\n", name, seed, err, res.Failed, res.Attempted)
				status = 1
				continue
			}
			var prov struct {
				Provenance provenance `json:"provenance"`
			}
			if len(lines) > 1 {
				json.Unmarshal(lines[len(lines)-2], &prov)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			var keys []string
			for k, m := range res.Metrics {
				values[name][k] = append(values[name][k], m.Value)
				units[k] = m.Unit
				keys = append(keys, k)
			}
			slices.Sort(keys)
			var each []string
			for _, k := range keys {
				each = append(each, fmt.Sprintf("%s=%.6g", k, res.Metrics[k].Value))
			}
			fmt.Printf("%s seed %d: correct, %d of %d ops failed, host steal %.4f: %s\n",
				name, seed, res.Failed, res.Attempted, prov.Provenance.StealShare, strings.Join(each, " "))
		}
	}
	for _, name := range names {
		values := values[name]
		var keys []string
		for k := range values {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		fmt.Printf("%-44s %-10s %14s %14s %14s %8s %6s\n", name, "unit", "median", "q1", "q3", "spread", "bound")
		for _, k := range keys {
			v := values[k]
			q1, q3 := quartiles(v)
			sp := spread(v)
			flag := ""
			bound, bounded := bounds[k]
			if bounded && k != "setup_s" && sp > bound {
				flag = "  OVER"
				status = 1
			}
			b := "-"
			if bounded {
				b = strconv.FormatFloat(bound, 'f', 2, 64)
			}
			fmt.Printf("  %-42s %-10s %14.4f %14.4f %14.4f %8.4f %6s%s\n", k, units[k], median(v), q1, q3, sp, b, flag)
		}
	}
	return status
}
