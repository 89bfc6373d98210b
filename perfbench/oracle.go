package main

import (
	"bytes"
	"encoding/binary"
)

// oracle remembers the last acknowledged version of every block and
// generates each (block, version) payload from the run's seed, so a
// read is checked against exactly the bytes its last acknowledged
// write carried. The program under test only ever sees the generated
// bytes.
type oracle struct {
	seed     uint64
	versions []uint32
	want     []byte // scratch for check
}

func newOracle(seed uint64, blocks, blockSize int) *oracle {
	return &oracle{seed: seed, versions: make([]uint32, blocks), want: make([]byte, blockSize)}
}

// payload fills dst with the stamped content of block b at version v:
// the block number and version in the first 12 bytes, then a stream
// keyed by (seed, block, version).
func (o *oracle) payload(dst []byte, b int, v uint32) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(b))
	binary.LittleEndian.PutUint32(dst[8:], v)
	x := o.seed ^ uint64(b)<<24 ^ uint64(v)<<1 ^ 0x9e3779b97f4a7c15
	i := 12
	for ; i+8 <= len(dst); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
	x = splitmix(x)
	for ; i < len(dst); i++ {
		dst[i] = byte(x)
		x >>= 8
	}
}

// next fills dst with block b's next version and returns it; the write
// counts only once acknowledged.
func (o *oracle) next(dst []byte, b int) uint32 {
	v := o.versions[b] + 1
	o.payload(dst, b, v)
	return v
}

// ack records that block b's write of version v was acknowledged.
func (o *oracle) ack(b int, v uint32) { o.versions[b] = v }

// check reports whether got is block b's last acknowledged content.
func (o *oracle) check(b int, got []byte) bool {
	o.payload(o.want, b, o.versions[b])
	return bytes.Equal(o.want, got)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
