package main

import (
	"context"
	"testing"
	"time"

	"stair/internal/store"
)

func TestSelfTimeIntervalUnion(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 60}}, 80},
		{"overlapping", []span{{Start: 10, End: 30}, {Start: 20, End: 40}}, 70},
		{"nested", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"touching", []span{{Start: 10, End: 20}, {Start: 20, End: 30}}, 80},
		{"unsorted and clipped", []span{{Start: 90, End: 120}, {Start: -5, End: 5}, {Start: 40, End: 50}}, 75},
		{"outside", []span{{Start: 100, End: 150}, {Start: -50, End: 0}}, 100},
		{"covers all", []span{{Start: 0, End: 60}, {Start: 50, End: 100}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTracedDeviceParentFromCtx checks that a device call made inside
// a traced op becomes that op's child, calls outside any op get parent
// 0, and nothing is recorded while the tracer is off.
func TestTracedDeviceParentFromCtx(t *testing.T) {
	tr := newTracer()
	dev := &tracedDevice{FaultDevice: store.NewMemDevice(8, 512), t: tr, prefix: "device", dev: 3}
	ctx := context.Background()
	buf := [][]byte{make([]byte, 512), make([]byte, 512)}
	if err := dev.WriteSectors(ctx, 2, buf); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.spans()); n != 0 {
		t.Fatalf("recorded %d spans while off", n)
	}
	tr.on.Store(true)
	err := tr.do(ctx, "store.read", func(ctx context.Context) error { return dev.ReadSectors(ctx, 2, buf) })
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	got := tr.spans()
	if len(got) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(got), got)
	}
	read, op, sync := got[0], got[1], got[2]
	if op.Name != "store.read" || op.Parent != 0 {
		t.Errorf("op span = %+v", op)
	}
	if read.Name != "device.read" || read.Parent != op.ID || read.Dev != 3 || read.Sector != 2 || read.Count != 2 {
		t.Errorf("device span = %+v, want child of %d at sector 2, count 2", read, op.ID)
	}
	if sync.Name != "device.sync" || sync.Parent != 0 {
		t.Errorf("untraced-caller span = %+v, want parent 0", sync)
	}
	if read.Start < op.Start || read.End > op.End {
		t.Errorf("child %v..%v outside parent %v..%v", read.Start, read.End, op.Start, op.End)
	}
}
