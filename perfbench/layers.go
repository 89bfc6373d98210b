package main

import (
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"stair/internal/cluster"
	"stair/internal/core"
	"stair/internal/store"
)

// calibration holds the gf and core layer measurements, made by direct
// calls on the workload geometry.
type calibration struct {
	multXORMiBs, encodeMiBs, encodeParMiBs float64
	repairUs, repairParUs, updateUs        float64
	updatePenalty                          float64
}

// medianCall times fn reps times and returns the median call time.
func medianCall(reps int, fn func()) time.Duration {
	fn() // warm tables, plans and caches
	d := make([]time.Duration, reps)
	for i := range d {
		t := time.Now()
		fn()
		d[i] = time.Since(t)
	}
	return percentile(d, 50)
}

// calibrate measures the gf kernel and the core encode, repair and
// update paths on one stripe of the workload geometry. The repair loss
// pattern is degraded-rebuild's: devices 0 and 1 plus one sector of a
// surviving column.
func calibrate(code *core.Code, seed uint64) (calibration, error) {
	var c calibration
	rng := rand.New(rand.NewPCG(seed, 0xca1))
	fill := func(b []byte) {
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
	}
	src, dst := make([]byte, sectorSize), make([]byte, sectorSize)
	fill(src)
	f := code.Field()
	const batch = 256
	d := medianCall(101, func() {
		for i := 0; i < batch; i++ {
			f.MultXOR(dst, src, 0x8e)
		}
	})
	c.multXORMiBs = mibPerS(batch*sectorSize, d)

	st, err := code.NewStripe(sectorSize)
	if err != nil {
		return c, err
	}
	cells := code.DataCells()
	for _, cell := range cells {
		fill(st.Sector(cell.Col, cell.Row))
	}
	dataBytes := len(cells) * sectorSize
	workers := runtime.GOMAXPROCS(0)
	var callErr error
	check := func(err error) {
		if err != nil && callErr == nil {
			callErr = err
		}
	}
	c.encodeMiBs = mibPerS(dataBytes, medianCall(301, func() { check(code.Encode(st)) }))
	c.encodeParMiBs = mibPerS(dataBytes, medianCall(301, func() {
		check(code.EncodeParallel(st, core.MethodAuto, workers))
	}))

	var lost []core.Cell
	for _, col := range degradedFailed {
		for row := 0; row < geoR; row++ {
			lost = append(lost, core.Cell{Col: col, Row: row})
		}
	}
	lost = append(lost, core.Cell{Col: len(degradedFailed) + rng.IntN(geoN-len(degradedFailed)), Row: rng.IntN(geoR)})
	c.repairUs = us(medianCall(301, func() { check(code.Repair(st, lost)) }))
	c.repairParUs = us(medianCall(301, func() { check(code.RepairParallel(st, lost, workers)) }))

	upd := make([]byte, sectorSize)
	fill(upd)
	c.updateUs = us(medianCall(1001, func() { check(code.Update(st, cells[rng.IntN(len(cells))], upd)) }))

	total := 0
	for _, cell := range cells {
		deps, err := code.ParityDependencies(cell)
		if err != nil {
			return c, err
		}
		total += 1 + len(deps)
	}
	c.updatePenalty = float64(total) / float64(len(cells))
	return c, callErr
}

// memSample is a snapshot of the runtime/metrics the mem layer uses.
type memSample struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64
}

func (m memSample) sub(o memSample) memSample {
	return memSample{m.allocs - o.allocs, m.allocBytes - o.allocBytes, m.gcCycles - o.gcCycles, m.gcCPU - o.gcCPU, m.totalCPU - o.totalCPU}
}

func (m memSample) add(o memSample) memSample {
	return memSample{m.allocs + o.allocs, m.allocBytes + o.allocBytes, m.gcCycles + o.gcCycles, m.gcCPU + o.gcCPU, m.totalCPU + o.totalCPU}
}

func readMem() memSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return memSample{
		allocs: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64(),
		gcCPU: s[3].Value.Float64(), totalCPU: s[4].Value.Float64(),
	}
}

// layerInput is everything the traced run hands perLayer.
type layerInput struct {
	w           workload
	cal         calibration
	prefillMiBs float64                // the setup's sequential prefill rate
	untraced    map[string]*latencies  // op latencies, untraced pass
	traced      map[string]*latencies  // op latencies, traced pass
	opStats     map[string]store.Stats // store counter deltas inside ops, traced pass
	ops         []span                 // spans of the traced pass's workload ops
	maint       []span                 // spans of its rebuild cycles and scrubs
	mem         memSample              // over the untraced pass's workload ops
	rebuilds    int
	net         netInput
}

// netInput is what the traced run's cluster pass hands perLayer.
type netInput struct {
	spans    []span
	opStats  map[string]store.Stats // store counter deltas inside ops
	cl0, cl1 cluster.Stats          // around the pass
	secs     float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func spanDurs(spans []span, keep func(span) bool) []time.Duration {
	var d []time.Duration
	for _, s := range spans {
		if keep(s) {
			d = append(d, s.dur())
		}
	}
	return d
}

// perLayer computes every per-layer metric from one traced run.
// Metrics of layers a workload does not run read 0.
func perLayer(in layerInput) map[string]metric {
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	all := slices.Concat(in.ops, in.maint)
	byID := map[uint64]span{}
	children := map[uint64][]span{}
	for _, s := range all {
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
	}
	parentNamed := func(s span, name string) bool {
		p, ok := byID[s.Parent]
		return ok && p.Name == name
	}
	isDev := func(op string) func(span) bool {
		return func(s span) bool { return s.Name == "device"+op }
	}
	selfs := func(name string) []time.Duration {
		var d []time.Duration
		for _, s := range all {
			if s.Name == name {
				d = append(d, selfTime(s, children[s.ID]))
			}
		}
		return d
	}
	// fracs splits the named spans' total time into their own share
	// and their device children's (0 without spans).
	fracs := func(name string) (self, busy float64) {
		var own, total time.Duration
		for _, s := range all {
			if s.Name == name {
				own += selfTime(s, children[s.ID])
				total += s.dur()
			}
		}
		return ratio(float64(own), float64(total)), ratio(float64(total-own), float64(total))
	}
	selfFrac := func(name string) float64 { f, _ := fracs(name); return f }
	p50us := func(d []time.Duration) float64 { return us(percentile(d, 50)) }

	c := in.cal
	put("gf.multxor_mib_s", "MiB/s", c.multXORMiBs)
	put("core.encode_mib_s", "MiB/s", c.encodeMiBs)
	put("core.encode_parallel_mib_s", "MiB/s", c.encodeParMiBs)
	put("core.repair_us", "us", c.repairUs)
	put("core.repair_parallel_us", "us", c.repairParUs)
	put("core.update_us", "us", c.updateUs)
	put("core.update_penalty_sectors", "sectors", c.updatePenalty)

	wst, rst := in.opStats["write"], in.opStats["read"]
	writes, reads := float64(wst.Writes), float64(rst.Reads)
	put("store.write_self_us_p50", "us", p50us(selfs("store.write")))
	put("store.write_self_us_p99", "us", us(percentile(selfs("store.write"), 99)))
	put("store.read_self_us_p50", "us", p50us(selfs("store.read")))
	// Whole-op tails, from the untraced pass: per-layer rather than
	// end-to-end because a p99 of ops this short follows the host's
	// interrupts and steal more than the program (update-random's read
	// p99 ran 11.1 us at 15% steal and 6.1 us at 0.1%).
	put("store.write_us_p99", "us", us(in.untraced["write"].p99()))
	put("store.read_us_p99", "us", us(in.untraced["read"].p99()))
	put("store.full_flushes_per_write", "ratio", ratio(float64(wst.FullStripeFlushes), writes))
	put("store.sub_flushes_per_write", "ratio", ratio(float64(wst.SubStripeFlushes), writes))
	var rmwSectors int
	for _, s := range in.ops {
		if isDev(".read")(s) && parentNamed(s, "store.write") {
			rmwSectors += s.Count
		}
	}
	put("store.rmw_read_amplification", "ratio",
		ratio(ratio(float64(rmwSectors), float64(wst.SubStripeFlushes)), c.updatePenalty))
	put("store.decodes_per_read", "ratio", ratio(float64(rst.DegradedReads-rst.DegradedCacheHits), reads))
	put("store.degraded_cache_hit_ratio", "ratio", ratio(float64(rst.DegradedCacheHits), float64(rst.DegradedReads)))
	put("store.rebuild_self_frac", "frac", selfFrac("store.rebuild"))
	put("store.scrub_self_frac", "frac", selfFrac("store.scrub"))
	var decSurvival float64
	if in.w.name == "degraded-rebuild" {
		decSurvival = ratio(c.repairUs, us(in.untraced["read"].p50()))
	}
	put("store.encode_survival", "ratio", ratio(in.prefillMiBs, c.encodeMiBs))
	put("store.decode_survival", "ratio", decSurvival)

	put("integrity.verified_sectors_per_read", "ratio", ratio(float64(rst.VerifiedSectors), reads))
	dataSectors := in.w.stripes * geoR
	var sidecarBytes, devReadBytes, devWriteBytes, devReads, devWrites int
	for _, s := range in.ops {
		switch {
		case isDev(".read")(s):
			devReads++
			devReadBytes += s.Count * sectorSize
		case isDev(".write")(s):
			devWrites++
			devWriteBytes += s.Count * sectorSize
			if s.Sector >= dataSectors {
				sidecarBytes += s.Count * sectorSize
			}
		}
	}
	userWritten := writes * sectorSize
	userBytes := (writes + reads) * sectorSize
	ops := float64(in.traced["write"].count() + in.traced["read"].count())
	put("integrity.sidecar_write_bytes_per_user_byte", "ratio", ratio(float64(sidecarBytes), userWritten))
	put("journal.flushes_per_write", "ratio", ratio(float64(wst.JournaledFlushes), writes))
	put("journal.sync_us_p50", "us", p50us(spanDurs(in.ops, func(s span) bool { return s.Name == "store.sync" })))

	put("device.read_bytes_per_user_byte", "ratio", ratio(float64(devReadBytes), userBytes))
	put("device.write_bytes_per_user_byte", "ratio", ratio(float64(devWriteBytes), userBytes))
	put("device.read_calls_per_op", "ratio", ratio(float64(devReads), ops))
	put("device.write_calls_per_op", "ratio", ratio(float64(devWrites), ops))
	put("device.read_us_p50", "us", p50us(spanDurs(in.ops, isDev(".read"))))
	put("device.write_us_p50", "us", p50us(spanDurs(in.ops, isDev(".write"))))
	for _, class := range []string{"write", "read", "sync", "rebuild", "scrub"} {
		_, busy := fracs("store." + class)
		put("device.busy_frac."+class, "frac", busy)
	}
	var rebuildRead int
	for _, s := range in.maint {
		if isDev(".read")(s) && parentNamed(s, "store.rebuild") {
			rebuildRead += s.Count * sectorSize
		}
	}
	rebuilt := float64(in.rebuilds * len(degradedFailed) * dataSectors * sectorSize)
	put("device.rebuild_read_bytes_per_rebuilt_byte", "ratio", ratio(float64(rebuildRead), rebuilt))

	netLayers(in.net, put)

	untracedOps := float64(in.untraced["write"].count() + in.untraced["read"].count())
	put("mem.allocs_per_op", "allocs/op", ratio(float64(in.mem.allocs), untracedOps))
	put("mem.alloc_bytes_per_op", "B/op", ratio(float64(in.mem.allocBytes), untracedOps))
	put("mem.gc_cycles", "count", float64(in.mem.gcCycles))
	put("mem.gc_cpu_frac", "frac", ratio(in.mem.gcCPU, in.mem.totalCPU))

	// Tracing overhead: the workload ops' median latencies, traced over
	// untraced, on the same stack and the same op counts.
	var tr, un float64
	for _, class := range []string{"write", "read"} {
		if in.untraced[class].count() > 0 && in.traced[class].count() > 0 {
			tr += float64(in.traced[class].p50())
			un += float64(in.untraced[class].p50())
		}
	}
	put("trace.overhead_frac", "frac", ratio(tr, un)-1)
	return out
}

// netLayers computes the netdev and cluster metrics from the cluster
// pass: device spans are the dialled NetDevices' calls, server spans
// the devices behind the DeviceServers.
func netLayers(in netInput, put func(name, unit string, v float64)) {
	byID := map[uint64]span{}
	for _, s := range in.spans {
		byID[s.ID] = s
	}
	named := func(names ...string) func(span) bool {
		return func(s span) bool { return slices.Contains(names, s.Name) }
	}
	client := us(percentile(spanDurs(in.spans, named("device.read", "device.write")), 50))
	server := us(percentile(spanDurs(in.spans, named("server.read", "server.write")), 50))
	put("netdev.client_call_us_p50", "us", client)
	put("netdev.server_call_us_p50", "us", server)
	put("netdev.overhead_us_p50", "us", client-server)
	calls := map[string]int{}
	for _, s := range in.spans {
		if strings.HasPrefix(s.Name, "device.") {
			calls[byID[s.Parent].Name]++
		}
	}
	put("netdev.round_trips_per_write", "ratio", ratio(float64(calls["store.write"]), float64(in.opStats["write"].Writes)))
	put("netdev.round_trips_per_read", "ratio", ratio(float64(calls["store.read"]), float64(in.opStats["read"].Reads)))
	put("cluster.heartbeats_per_s", "1/s", ratio(float64(in.cl1.Heartbeats-in.cl0.Heartbeats), in.secs))
	put("cluster.failovers", "count", float64(in.cl1.Failovers))
}
