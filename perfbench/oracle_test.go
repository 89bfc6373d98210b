package main

import (
	"bytes"
	"testing"
)

func TestOracleStamps(t *testing.T) {
	const size = 4096
	o := newOracle(7, 4, size)
	buf := make([]byte, size)

	v := o.next(buf, 2)
	if v != 1 {
		t.Fatalf("first version = %d, want 1", v)
	}
	// Not acknowledged yet: the oracle still expects version 0.
	if o.check(2, buf) {
		t.Fatal("unacknowledged write accepted")
	}
	o.ack(2, v)
	if !o.check(2, buf) {
		t.Fatal("acknowledged content rejected")
	}
	stale := bytes.Clone(buf)
	o.ack(2, o.next(buf, 2))
	if o.check(2, stale) {
		t.Fatal("stale version accepted")
	}
	if !o.check(2, buf) {
		t.Fatal("latest version rejected")
	}
	// The same bytes are wrong for any other block.
	o.ack(3, 2)
	if o.check(3, buf) {
		t.Fatal("block 2's content accepted for block 3")
	}
	// Payloads depend on the seed and differ across blocks and versions.
	a, b, c := make([]byte, size), make([]byte, size), make([]byte, size)
	o.payload(a, 1, 1)
	o.payload(b, 1, 2)
	newOracle(8, 4, size).payload(c, 1, 1)
	if bytes.Equal(a[12:], b[12:]) || bytes.Equal(a, c) {
		t.Fatal("payloads repeat across versions or seeds")
	}
	// One flipped bit anywhere is caught.
	o.ack(1, 1)
	a[size-1] ^= 1
	if o.check(1, a) {
		t.Fatal("corrupted payload accepted")
	}
}
