package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"stair/internal/cluster"
	"stair/internal/store"
)

// span is one timed call at a layer boundary. Parent is the span that
// caused it, read from the caller's ctx; 0 means no traced caller
// (background work such as repair workers, or the server side of a
// network call). Device spans also record the extent they touched.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Dev    int    `json:"dev"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Sector int    `json:"sector"`
	Count  int    `json:"count"`
	// Maint marks spans recorded during rebuild cycles and scrubs
	// rather than the workload's own ops.
	Maint bool `json:"maint"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type spanKey struct{}

// tracer keeps spans in memory until the run ends. While off, every
// hook forwards without recording, so a traced process can also time
// an untraced pass over the same stack.
type tracer struct {
	on    atomic.Bool
	maint atomic.Bool
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	all   []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.all = append(t.all, s)
	t.mu.Unlock()
}

// do runs fn under a new span named name whose ID rides in fn's ctx,
// so device calls fn makes become its children.
func (t *tracer) do(ctx context.Context, name string, fn func(context.Context) error) error {
	if t == nil || !t.on.Load() {
		return fn(ctx)
	}
	s := span{ID: t.next.Add(1), Parent: parentOf(ctx), Name: name, Dev: -1, Maint: t.maint.Load()}
	ctx = context.WithValue(ctx, spanKey{}, s.ID)
	s.Start = t.now()
	err := fn(ctx)
	s.End = t.now()
	t.record(s)
	return err
}

// spans returns a copy of every span recorded so far.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.all)
}

// dump writes the spans, gzipped JSON lines, to path.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for _, s := range t.spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedDevice records a span per call on the device it wraps, named
// prefix+".read", ".write" or ".sync". Embedding the wrapped device
// forwards its fault plane, so the store treats the wrapper exactly like
// the device; Sync is forwarded (and recorded) as well.
type tracedDevice struct {
	store.FaultDevice
	t      *tracer
	prefix string
	dev    int
}

func (d *tracedDevice) call(ctx context.Context, op string, start, count int, fn func() error) error {
	if !d.t.on.Load() {
		return fn()
	}
	s := span{
		ID: d.t.next.Add(1), Parent: parentOf(ctx), Name: d.prefix + op, Dev: d.dev,
		Sector: start, Count: count, Maint: d.t.maint.Load(),
	}
	s.Start = d.t.now()
	err := fn()
	s.End = d.t.now()
	d.t.record(s)
	return err
}

func (d *tracedDevice) ReadSectors(ctx context.Context, start int, bufs [][]byte) error {
	return d.call(ctx, ".read", start, len(bufs), func() error { return d.FaultDevice.ReadSectors(ctx, start, bufs) })
}

func (d *tracedDevice) WriteSectors(ctx context.Context, start int, data [][]byte) error {
	return d.call(ctx, ".write", start, len(data), func() error { return d.FaultDevice.WriteSectors(ctx, start, data) })
}

func (d *tracedDevice) Sync(ctx context.Context) error {
	return d.call(ctx, ".sync", 0, 0, func() error { return store.SyncDevice(ctx, d.FaultDevice) })
}

// tracedNetDevice is a tracedDevice around a dialled NetDevice; it also
// forwards the liveness probe the cluster's failure detector uses.
type tracedNetDevice struct {
	*tracedDevice
	net *store.NetDevice
}

var _ cluster.Pinger = tracedNetDevice{}

func (d tracedNetDevice) Ping(ctx context.Context) error { return d.net.Ping(ctx) }

// selfTime is a span's duration minus the union of its children's
// intervals, each clipped to the span.
func selfTime(s span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return time.Duration(s.End - s.Start - covered)
}
