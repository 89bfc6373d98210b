package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"stair/internal/core"
	"stair/internal/store"
)

// workload is one closed-loop benchmark workload, driven by a single
// client. A run is a sequence of rounds; each round runs the
// workload's own ops, then rebuild cycles and scrub passes on the
// same stack. Interleaving the phases spreads every metric's samples
// over the whole run, so drift in the host's speed during a run
// moves all of them alike instead of whichever phase it hit.
type workload struct {
	name    string
	stripes int
	open    func(r *run) (*stack, error)
	// ops runs one round's workload ops, through r.phase.
	ops func(ctx context.Context, r *run)
}

var workloads = []workload{
	{
		name: "update-random", stripes: 512, ops: updateOps,
		open: func(r *run) (*stack, error) { return openFileStack(r.dataDir, r.code, r.w.stripes, r.tr) },
	},
	{
		name: "degraded-rebuild", stripes: 512, ops: degradedOps,
		open: func(r *run) (*stack, error) { return openMemStack(r.code, r.w.stripes, r.tr) },
	},
}

// clusterPass is what a traced run drives through a cluster volume over
// loopback device servers to measure the netdev and cluster layers. It
// is no workload of its own: its times are some fourteen loopback round
// trips per write, which on a shared host spread too widely between
// runs to bound.
var clusterPass = workload{
	name: "cluster-http", stripes: 128, ops: clusterOps,
	open: func(r *run) (*stack, error) { return openClusterStack(context.Background(), r.code, r.w.stripes, r.tr) },
}

func findWorkload(name string) (workload, bool) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return workload{}, false
	}
	return workloads[i], true
}

const (
	// roundTarget is the length a run's rounds aim at; a run makes
	// --seconds / roundTarget of them.
	roundTarget = 5 * time.Second
	// warmupLen is the untimed round an untraced run makes before it
	// starts timing.
	warmupLen = 3 * time.Second
	// opsShare is the share of a round the workload's ops get; rebuild
	// cycles and scrub passes fill the rest.
	opsShare = 0.65
	// tracedRounds is how many rounds each pass of a traced run makes.
	tracedRounds = 2
)

// run is one benchmark process's state.
type run struct {
	w       workload
	seed    uint64
	seconds time.Duration
	code    *core.Code
	dataDir string
	tr      *tracer // nil in untraced runs
	stk     *stack
	or      *oracle
	rng     *rand.Rand

	// fixed is set during traced-run passes: phases run fixed op counts
	// and quiesce background repair after each op, so every count the
	// trace yields repeats exactly for a seed.
	fixed bool
	// roundStart and roundLen place the current round's deadlines.
	roundStart time.Time
	roundLen   time.Duration
	// prefillMiBs is the last setup's sequential prefill rate.
	prefillMiBs float64
	// lat holds the op latencies of the current pass, by class.
	lat map[string]*latencies
	// opStats accumulates store counter deltas across ops, by class
	// (traced passes only).
	opStats map[string]store.Stats
	// opsMem accumulates runtime/metrics deltas over the workload ops.
	opsMem memSample

	// writes counts update-random's writes across rounds.
	writes int

	attempted, failed int
	firstErr          error

	wbuf, rbuf []byte // one block
}

func (r *run) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

var errMismatch = errors.New("read returned content other than the last acknowledged write")

// phase loops op until the given share of the round has passed (at
// least once), or exactly count times in fixed passes.
func (r *run) phase(until float64, count int, op func()) {
	if r.fixed {
		for i := 0; i < count; i++ {
			op()
			r.stk.st.Quiesce()
		}
		return
	}
	deadline := r.roundStart.Add(time.Duration(until * float64(r.roundLen)))
	for first := true; first || time.Now().Before(deadline); first = false {
		op()
	}
}

// rounds runs n rounds of the workload's ops and maintenance, each
// of length round (ignored in fixed passes).
func (r *run) rounds(ctx context.Context, n int, round time.Duration) {
	r.roundLen = round
	for i := 0; i < n; i++ {
		r.roundStart = time.Now()
		m0 := readMem()
		r.w.ops(ctx, r)
		r.opsMem = r.opsMem.add(readMem().sub(m0))
		if r.tr != nil {
			r.tr.maint.Store(true)
		}
		r.maintain(ctx)
		if r.tr != nil {
			r.tr.maint.Store(false)
		}
	}
}

// timed runs one op under a span of the given name, adds its latency
// to class, and in traced passes its store counter deltas too.
func (r *run) timed(ctx context.Context, class, name string, fn func(context.Context) error) error {
	var before store.Stats
	if r.opStats != nil {
		before = r.stk.st.Stats()
	}
	t := time.Now()
	err := r.tr.do(ctx, name, fn)
	d := time.Since(t)
	l := r.lat[class]
	if l == nil {
		l = &latencies{}
		r.lat[class] = l
	}
	l.add(d)
	if r.opStats != nil {
		r.opStats[class] = r.opStats[class].Add(statsDelta(r.stk.st.Stats(), before))
	}
	return err
}

func (r *run) write(ctx context.Context, b int) {
	v := r.or.next(r.wbuf, b)
	r.attempted++
	err := r.timed(ctx, "write", "store.write", func(ctx context.Context) error {
		return r.stk.write(ctx, b, r.wbuf)
	})
	if err != nil {
		r.fail(fmt.Errorf("write block %d: %w", b, err))
		return
	}
	r.or.ack(b, v)
}

func (r *run) read(ctx context.Context, b int) {
	r.attempted++
	err := r.timed(ctx, "read", "store.read", func(ctx context.Context) error {
		return r.stk.read(ctx, b, r.rbuf)
	})
	switch {
	case err != nil:
		r.fail(fmt.Errorf("read block %d: %w", b, err))
	case !r.or.check(b, r.rbuf):
		r.fail(fmt.Errorf("read block %d: %w", b, errMismatch))
	}
}

func (r *run) sync(ctx context.Context) {
	r.attempted++
	if err := r.timed(ctx, "sync", "store.sync", r.stk.sync); err != nil {
		r.fail(fmt.Errorf("sync: %w", err))
	}
}

// setup builds the stack, prefills every block sequentially with
// version 1 and syncs.
func (r *run) setup(ctx context.Context) error {
	stk, err := r.w.open(r)
	if err != nil {
		return err
	}
	r.stk = stk
	blocks := stk.st.Blocks()
	r.or = newOracle(r.seed, blocks, sectorSize)
	start := time.Now()
	for b := 0; b < blocks; b++ {
		v := r.or.next(r.wbuf, b)
		if err := stk.write(ctx, b, r.wbuf); err != nil {
			return fmt.Errorf("prefill block %d: %w", b, err)
		}
		r.or.ack(b, v)
	}
	r.prefillMiBs = mibPerS(blocks*sectorSize, time.Since(start))
	return stk.sync(ctx)
}

// updateOps: uniform random blocks, 70% writes and 30% reads, with a
// Sync (its own class) every 1000 writes.
func updateOps(ctx context.Context, r *run) {
	blocks := r.stk.st.Blocks()
	r.phase(opsShare, 3000, func() {
		b := r.rng.IntN(blocks)
		if r.rng.IntN(10) < 7 {
			r.write(ctx, b)
			if r.writes++; r.writes%1000 == 0 {
				r.sync(ctx)
			}
			return
		}
		r.read(ctx, b)
	})
}

// clusterOps: uniform random blocks, 50% writes and 50% reads.
func clusterOps(ctx context.Context, r *run) {
	blocks := r.stk.st.Blocks()
	r.phase(opsShare, 1500, func() {
		b := r.rng.IntN(blocks)
		if r.rng.IntN(2) == 0 {
			r.write(ctx, b)
			return
		}
		r.read(ctx, b)
	})
}

// degradedFailed are the devices the rebuild cycles (and
// degraded-rebuild's ops) fail.
var degradedFailed = []int{0, 1}

// degradedOps fails devices 0 and 1, injects one latent sector error
// per stripe in a surviving column, then reads, and afterwards writes,
// uniform random blocks whose cells are lost, so every read decodes.
func degradedOps(ctx context.Context, r *run) {
	st := r.stk.st
	if err := r.failDevices(); err != nil {
		r.fail(err)
		return
	}
	for stripe := 0; stripe < r.w.stripes; stripe++ {
		col := len(degradedFailed) + r.rng.IntN(geoN-len(degradedFailed))
		if err := st.InjectSectorError(col, stripe*geoR+r.rng.IntN(geoR)); err != nil {
			r.fail(fmt.Errorf("inject sector error: %w", err))
			return
		}
	}
	lost := lostBlocks(r.code.DataCells(), r.w.stripes, degradedFailed)
	r.phase(0.4, 1500, func() { r.read(ctx, lost[r.rng.IntN(len(lost))]) })
	r.phase(opsShare, 500, func() { r.write(ctx, lost[r.rng.IntN(len(lost))]) })
}

// failDevices fails whichever of degradedFailed is still healthy.
func (r *run) failDevices() error {
	st := r.stk.st
	for _, d := range degradedFailed {
		if slices.Contains(st.FailedDevices(), d) {
			continue
		}
		if err := st.FailDevice(d); err != nil {
			return fmt.Errorf("fail device %d: %w", d, err)
		}
	}
	return nil
}

// lostBlocks lists the logical blocks whose data cells sit on the
// failed columns. Blocks map to cells as the store lays them out: block
// b is stripe b/len(cells), data cell cells[b%len(cells)] in the code's
// DataCells order.
func lostBlocks(cells []core.Cell, stripes int, failed []int) []int {
	var lost []int
	for stripe := 0; stripe < stripes; stripe++ {
		for ord, c := range cells {
			if slices.Contains(failed, c.Col) {
				lost = append(lost, stripe*len(cells)+ord)
			}
		}
	}
	return lost
}

// maintain syncs, then alternates timed rebuild cycles (replace and
// rebuild of devices 0 and 1, failed first where healthy) and scrub
// passes until the round ends.
func (r *run) maintain(ctx context.Context) {
	if err := r.stk.sync(ctx); err != nil {
		r.fail(fmt.Errorf("sync before maintenance: %w", err))
		return
	}
	r.stk.st.Quiesce()
	r.phase(1, 1, func() {
		r.rebuildCycle(ctx)
		r.scrubPass(ctx)
	})
}

func (r *run) rebuildCycle(ctx context.Context) {
	st := r.stk.st
	r.attempted++
	if err := r.failDevices(); err != nil {
		r.fail(err)
		return
	}
	err := r.timed(ctx, "rebuild", "store.rebuild_cycle", func(ctx context.Context) error {
		for _, d := range degradedFailed {
			if err := r.tr.do(ctx, "store.replace", func(context.Context) error { return st.ReplaceDevice(d) }); err != nil {
				return err
			}
		}
		for _, d := range degradedFailed {
			if err := r.tr.do(ctx, "store.rebuild", func(ctx context.Context) error { return st.RebuildDevice(ctx, d) }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		r.fail(fmt.Errorf("rebuild cycle: %w", err))
	}
}

func (r *run) scrubPass(ctx context.Context) {
	r.attempted++
	var rep store.ScrubReport
	err := r.timed(ctx, "scrub", "store.scrub", func(ctx context.Context) (err error) {
		rep, err = r.stk.scrub(ctx)
		return err
	})
	if err == nil {
		err = scrubClean(rep)
	}
	if err != nil {
		r.fail(fmt.Errorf("scrub: %w", err))
	}
}

// scrubClean reports a scrub that found anything wrong: after a
// rebuild every stripe must be whole and consistent.
func scrubClean(rep store.ScrubReport) error {
	if rep.StripesDamaged+rep.StripesInconsistent+rep.StripesUnrecoverable != 0 {
		return fmt.Errorf("scrub found %d damaged, %d inconsistent, %d unrecoverable stripes",
			rep.StripesDamaged, rep.StripesInconsistent, rep.StripesUnrecoverable)
	}
	return nil
}

// verify reads every block back against the oracle and scrubs, outside
// any timed call.
func (r *run) verify(ctx context.Context) {
	st := r.stk.st
	if err := r.stk.sync(ctx); err != nil {
		r.fail(fmt.Errorf("final sync: %w", err))
	}
	st.Quiesce()
	for b := 0; b < st.Blocks(); b++ {
		r.attempted++
		if err := r.stk.read(ctx, b, r.rbuf); err != nil {
			r.fail(fmt.Errorf("read-back block %d: %w", b, err))
		} else if !r.or.check(b, r.rbuf) {
			r.fail(fmt.Errorf("read-back block %d: %w", b, errMismatch))
		}
	}
	r.attempted++
	rep, err := r.stk.scrub(ctx)
	if err == nil {
		err = scrubClean(rep)
	}
	if n := st.Stats().UnrecoverableStripes; err == nil && n != 0 {
		err = fmt.Errorf("%d stripes marked unrecoverable", n)
	}
	if err != nil {
		r.fail(fmt.Errorf("final scrub: %w", err))
	}
}

// statsDelta subtracts the monotone counters of b from a.
func statsDelta(a, b store.Stats) store.Stats {
	return store.Stats{
		Reads:              a.Reads - b.Reads,
		DegradedReads:      a.DegradedReads - b.DegradedReads,
		Writes:             a.Writes - b.Writes,
		FullStripeFlushes:  a.FullStripeFlushes - b.FullStripeFlushes,
		SubStripeFlushes:   a.SubStripeFlushes - b.SubStripeFlushes,
		DegradedCacheHits:  a.DegradedCacheHits - b.DegradedCacheHits,
		JournaledFlushes:   a.JournaledFlushes - b.JournaledFlushes,
		VerifiedSectors:    a.VerifiedSectors - b.VerifiedSectors,
		ChecksumMismatches: a.ChecksumMismatches - b.ChecksumMismatches,
	}
}
