// Command perfbench is the repository's end-to-end benchmark: two
// closed-loop, single-client workloads over the STAIR block store, each
// run in a fresh process. An untraced run (--trace 0) prints the
// end-to-end metrics; a traced run (--trace 1) prints the per-layer
// metrics from spans recorded by wrappers around every device the
// store sees. Every read is checked against the last acknowledged
// write; the last stdout line is the JSON result.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload update-random --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --workload all --seconds 40              # every workload once
//	bash perfbench/run.sh --workload all --repeat 10 --seconds 40  # spread per metric
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"stair/internal/core"
	"stair/internal/store"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	repeat   int
	commit   string
}

// dataRoot holds volume files and span dumps, under the checkout.
const dataRoot = ".bench_build/perfbench"

// stacks is how many fresh stacks an untraced run sets up and times in
// turn; setup_s is the median setup. Each stack's memory lands at
// other addresses, and its speed with them: it varied by up to a
// quarter from stack to stack in one process.
const stacks = 8

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name, or all to run every workload (repeat mode)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 40, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1 for the traced run printing per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "run each workload this many times (seeds seed, seed+1, ...) and report spreads")
	flag.StringVar(&o.commit, "commit", "unknown", "commit recorded in the provenance line")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥1 and --trace 0 or 1")
		os.Exit(2)
	}
	if o.workload == "all" {
		o.repeat = max(o.repeat, 1)
	}
	if o.repeat > 0 {
		os.Exit(repeat(o))
	}
	os.Exit(single(o))
}

func single(o options) int {
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	removeStale(dataRoot)
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir := filepath.Join(dataRoot, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	code, err := newCode()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := newRun(w, o.seed, code, dir)
	r.seconds = time.Duration(o.seconds) * time.Second
	steal0, total0 := cpuTimes()
	var res result
	if o.trace == 1 {
		res, err = r.traced(context.Background())
	} else {
		res, err = r.untraced(context.Background())
	}
	steal1, total1 := cpuTimes()
	prov := newProvenance(o.commit, ratio(float64(steal1-steal0), float64(total1-total0)))
	line, _ := json.Marshal(map[string]any{"provenance": prov, "workload": w.name, "seed": o.seed, "trace": o.trace})
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed; first: %v\n", w.name, r.failed, r.attempted, r.firstErr)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func newRun(w workload, seed uint64, code *core.Code, dir string) *run {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	return &run{
		w: w, seed: seed, code: code, dataDir: dir,
		rng:  rand.New(rand.NewPCG(seed, h.Sum64())),
		wbuf: make([]byte, sectorSize), rbuf: make([]byte, sectorSize),
	}
}

// removeStale deletes run directories left by benchmark processes
// that no longer exist.
func removeStale(root string) {
	entries, _ := os.ReadDir(root)
	for _, e := range entries {
		pid, ok := strings.CutPrefix(e.Name(), "run-")
		if !ok {
			continue
		}
		if _, err := strconv.Atoi(pid); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join("/proc", pid)); errors.Is(err, os.ErrNotExist) {
			os.RemoveAll(filepath.Join(root, e.Name()))
		}
	}
}

func (r *run) result(metrics map[string]metric) result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
}

// untraced runs the workload's timed rounds on stacks fresh stacks in
// turn, setting each up, timing its share of the rounds and checking
// it; the first is warmed up with one untimed round. It reports the
// end-to-end metrics.
func (r *run) untraced(ctx context.Context) (result, error) {
	perStack := max(1, int(math.Round(r.seconds.Seconds()/roundTarget.Seconds()/stacks)))
	round := r.seconds / time.Duration(stacks*perStack)
	var times []float64
	var stored float64
	for i := 0; i < stacks; i++ {
		t := time.Now()
		if err := r.setup(ctx); err != nil {
			r.closeStack()
			return result{}, err
		}
		times = append(times, time.Since(t).Seconds())
		if i == 0 {
			r.lat = map[string]*latencies{}
			r.rounds(ctx, 1, warmupLen)
			r.lat = map[string]*latencies{}
		}
		r.rounds(ctx, perStack, round)
		r.verify(ctx)
		stored = r.stk.storedBytesPerUserByte()
		r.closeStack()
		// Drop the torn-down stack's memory so every setup, and the
		// run's peak RSS, starts from the same heap.
		runtime.GC()
		debug.FreeOSMemory()
	}

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	put("write_p50_us", "us", us(r.lat["write"].p50()))
	put("read_p50_us", "us", us(r.lat["read"].p50()))
	put("rebuild_mib_s", "MiB/s", mibPerS(len(degradedFailed)*r.w.stripes*geoR*sectorSize, r.lat["rebuild"].p50()))
	put("scrub_mib_s", "MiB/s", mibPerS(geoN*r.w.stripes*geoR*sectorSize, r.lat["scrub"].p50()))
	put("setup_s", "s", median(times))
	put("stored_bytes_per_user_byte", "ratio", stored)
	put("max_rss_mib", "MiB", maxRSSMiB())
	return r.result(m), nil
}

func (r *run) closeStack() {
	if r.stk == nil {
		return
	}
	if err := r.stk.close(); err != nil {
		r.fail(fmt.Errorf("close: %w", err))
	}
	r.stk = nil
}

// traced sets up once over recording device wrappers, calibrates the
// gf and core layers, runs tracedRounds rounds with fixed op counts
// untraced and then the same again traced, then makes the cluster
// pass, and reports the per-layer metrics.
func (r *run) traced(ctx context.Context) (result, error) {
	r.tr = newTracer()
	if err := r.setup(ctx); err != nil {
		r.closeStack()
		return result{}, err
	}
	cal, err := calibrate(r.code, r.seed)
	if err != nil {
		r.closeStack()
		return result{}, fmt.Errorf("calibration: %w", err)
	}
	in := layerInput{w: r.w, cal: cal, prefillMiBs: r.prefillMiBs, rebuilds: tracedRounds}
	r.fixed = true

	r.lat = map[string]*latencies{}
	r.rounds(ctx, tracedRounds, 0)
	in.untraced, in.mem = r.lat, r.opsMem

	r.lat = map[string]*latencies{}
	r.opStats = map[string]store.Stats{}
	r.tr.on.Store(true)
	r.rounds(ctx, tracedRounds, 0)
	r.tr.on.Store(false)
	for _, s := range r.tr.spans() {
		if s.Maint {
			in.maint = append(in.maint, s)
		} else {
			in.ops = append(in.ops, s)
		}
	}
	in.traced, in.opStats = r.lat, r.opStats
	r.opStats = nil

	r.verify(ctx)
	r.closeStack()
	if err := r.tr.dump(r.spansPath()); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	if in.net, err = r.netPass(ctx); err != nil {
		return result{}, fmt.Errorf("cluster pass: %w", err)
	}
	return r.result(perLayer(in)), nil
}

func (r *run) spansPath() string {
	return filepath.Join(dataRoot, fmt.Sprintf("spans-%s-%d.jsonl.gz", r.w.name, r.seed))
}

// netPass sets up clusterPass's volume over traced loopback device
// servers, runs its ops once with fixed counts, traced, and checks
// every block. Its ops count toward r's attempted and failed ops.
func (r *run) netPass(ctx context.Context) (netInput, error) {
	c := newRun(clusterPass, r.seed, r.code, r.dataDir)
	c.tr, c.fixed = newTracer(), true
	defer func() {
		r.attempted += c.attempted
		r.failed += c.failed
		if r.firstErr == nil {
			r.firstErr = c.firstErr
		}
	}()
	if err := c.setup(ctx); err != nil {
		c.closeStack()
		return netInput{}, err
	}
	c.lat, c.opStats = map[string]*latencies{}, map[string]store.Stats{}
	in := netInput{cl0: c.stk.vol.Stats()}
	start := time.Now()
	c.tr.on.Store(true)
	c.w.ops(ctx, c)
	c.tr.on.Store(false)
	in.secs = time.Since(start).Seconds()
	in.cl1 = c.stk.vol.Stats()
	in.spans, in.opStats = c.tr.spans(), c.opStats
	c.opStats = nil
	c.verify(ctx)
	c.closeStack()
	return in, c.tr.dump(c.spansPath())
}
