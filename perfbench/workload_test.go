package main

import (
	"context"
	"slices"
	"testing"

	"stair/internal/core"
	"stair/internal/store"
)

// TestLostBlocksMatchStoreLayout writes a distinct payload to every
// block of a small store, finds on which device sector each one
// landed, and checks the classifier against it: block b sits at data
// cell DataCells()[b % len(DataCells())] of stripe b / len(DataCells()),
// and lostBlocks lists exactly the blocks on the failed columns.
func TestLostBlocksMatchStoreLayout(t *testing.T) {
	code, err := newCode()
	if err != nil {
		t.Fatal(err)
	}
	const stripes, size = 2, 512
	devs := make([]*store.MemDevice, geoN)
	sdevs := make([]store.Device, geoN)
	for i := range devs {
		devs[i] = store.NewMemDevice(stripes*geoR, size)
		sdevs[i] = devs[i]
	}
	st, err := store.Open(store.Config{Code: code, SectorSize: size, Stripes: stripes, Devices: sdevs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	or := newOracle(1, st.Blocks(), size)
	buf := make([]byte, size)
	for b := 0; b < st.Blocks(); b++ {
		or.ack(b, or.next(buf, b))
		if err := st.WriteBlock(ctx, b, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	cells := code.DataCells()
	where := map[string]core.Cell{} // payload → (col, row within stripe)
	sector := make([]byte, size)
	for col, d := range devs {
		for idx := 0; idx < stripes*geoR; idx++ {
			if err := store.ReadSector(ctx, d, idx, sector); err != nil {
				t.Fatal(err)
			}
			where[string(sector)] = core.Cell{Col: col, Row: idx}
		}
	}
	var onFailed []int
	for b := 0; b < st.Blocks(); b++ {
		or.payload(buf, b, 1)
		at, ok := where[string(buf)]
		if !ok {
			t.Fatalf("block %d not found on any device", b)
		}
		stripe, want := b/len(cells), cells[b%len(cells)]
		if at.Col != want.Col || at.Row != stripe*geoR+want.Row {
			t.Fatalf("block %d at col %d sector %d, classifier expects col %d sector %d",
				b, at.Col, at.Row, want.Col, stripe*geoR+want.Row)
		}
		if at.Col == 0 || at.Col == 1 {
			onFailed = append(onFailed, b)
		}
	}
	got := lostBlocks(cells, stripes, []int{0, 1})
	if !slices.Equal(got, onFailed) {
		t.Fatalf("lostBlocks = %v, blocks on columns 0 and 1 = %v", got, onFailed)
	}
	if len(got) == 0 {
		t.Fatal("no data cells on the failed columns")
	}
}
