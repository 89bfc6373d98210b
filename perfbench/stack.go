package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"unsafe"

	"stair/internal/cluster"
	"stair/internal/core"
	"stair/internal/store"
	"stair/internal/store/journal"
)

// Geometry shared by every workload: stairbench -experiment store's
// code, 92 data blocks (368 KiB) per stripe.
const (
	geoN, geoR, geoM = 8, 16, 2
	sectorSize       = 4096
)

var geoE = []int{1, 1, 2}

func newCode() (*core.Code, error) {
	return core.New(core.Config{N: geoN, R: geoR, M: geoM, E: geoE})
}

// stack is one workload's system under test: a store, or a cluster
// volume and the store inside it, plus what must be torn down after.
type stack struct {
	st         *store.Store
	vol        *cluster.Volume
	devSectors int // sectors allocated on each of the n devices
	closers    []func() error
}

func (s *stack) write(ctx context.Context, b int, data []byte) error {
	if s.vol != nil {
		return s.vol.WriteBlock(ctx, b, data)
	}
	return s.st.WriteBlock(ctx, b, data)
}

func (s *stack) read(ctx context.Context, b int, dst []byte) error {
	if s.vol == nil {
		return s.st.ReadBlockInto(ctx, b, dst)
	}
	buf, err := s.vol.ReadBlock(ctx, b)
	if err != nil {
		return err
	}
	copy(dst, buf)
	s.st.ReleaseBlock(buf)
	return nil
}

func (s *stack) sync(ctx context.Context) error {
	if s.vol != nil {
		return s.vol.Sync(ctx)
	}
	return s.st.Sync(ctx)
}

func (s *stack) scrub(ctx context.Context) (store.ScrubReport, error) {
	if s.vol != nil {
		return s.vol.Scrub(ctx)
	}
	return s.st.Scrub(ctx)
}

// close tears the stack down in reverse order of construction.
func (s *stack) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	return errors.Join(errs...)
}

// storedBytesPerUserByte is every device sector allocated (data,
// parity and integrity sidecar) over user capacity.
func (s *stack) storedBytesPerUserByte() float64 {
	return float64(geoN*s.devSectors) / float64(s.st.Blocks())
}

// wrap puts a recording wrapper on d when tracing.
func wrap(t *tracer, d store.FaultDevice, prefix string, dev int) store.Device {
	if t == nil {
		return d
	}
	return &tracedDevice{FaultDevice: d, t: t, prefix: prefix, dev: dev}
}

// memFile puts an in-memory file at path: an anonymous memfd, and a
// symlink to it at path. Code that opens path by name then runs its
// real file I/O (pread, pwrite, fsync) on memory, as on a tmpfs, and
// nothing reaches the checkout's disk, whose latency is other tenants'
// load. The memfd must stay open while path is in use.
func memFile(path string) (*os.File, error) {
	nr, ok := map[string]uintptr{"amd64": 319, "arm64": 279}[runtime.GOARCH]
	if !ok {
		return nil, fmt.Errorf("memfd_create: no syscall number for %s", runtime.GOARCH)
	}
	name, err := syscall.BytePtrFromString(filepath.Base(path))
	if err != nil {
		return nil, err
	}
	const mfdCloexec = 1
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(name)), mfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("memfd_create", errno)
	}
	f := os.NewFile(fd, path)
	if err := os.Symlink(fmt.Sprintf("/proc/self/fd/%d", fd), path); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// openFileStack builds the stairstore production stack in dir: n
// FileDevices, the write-ahead journal and the integrity layer, each
// file in memory (memFile). The devices' fault sidecars are small
// regular files in dir.
func openFileStack(dir string, code *core.Code, stripes int, t *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{devSectors: stripes*geoR + store.IntegrityMetaSectors(stripes, geoR, sectorSize)}
	s.closers = append(s.closers, func() error { return os.RemoveAll(dir) })
	files := []string{filepath.Join(dir, "journal.wal")}
	for i := 0; i < geoN; i++ {
		files = append(files, filepath.Join(dir, fmt.Sprintf("dev%d.img", i)))
	}
	for _, path := range files {
		f, err := memFile(path)
		if err != nil {
			s.close()
			return nil, err
		}
		s.closers = append(s.closers, f.Close)
	}
	j, err := journal.Open(files[0])
	if err != nil {
		s.close()
		return nil, err
	}
	s.closers = append(s.closers, j.Close)
	devs := make([]store.Device, 0, geoN)
	closeDevs := func() {
		for _, d := range devs {
			d.Close()
		}
	}
	for i := 0; i < geoN; i++ {
		d, err := store.OpenFileDevice(files[1+i], s.devSectors, sectorSize)
		if err != nil {
			closeDevs()
			s.close()
			return nil, err
		}
		devs = append(devs, wrap(t, d, "device", i))
	}
	st, err := store.Open(store.Config{
		Code: code, SectorSize: sectorSize, Stripes: stripes, Devices: devs,
		Journal: j, Integrity: &store.IntegrityOptions{Epoch: 1},
	})
	if err != nil {
		closeDevs()
		s.close()
		return nil, err
	}
	s.st = st
	s.closers = append(s.closers, st.Close) // closes the devices too
	return s, nil
}

// openMemStack builds a store over n MemDevices, no journal and no
// integrity layer.
func openMemStack(code *core.Code, stripes int, t *tracer) (*stack, error) {
	s := &stack{devSectors: stripes * geoR}
	devs := make([]store.Device, geoN)
	for i := range devs {
		devs[i] = wrap(t, store.NewMemDevice(s.devSectors, sectorSize), "device", i)
	}
	st, err := store.Open(store.Config{Code: code, SectorSize: sectorSize, Stripes: stripes, Devices: devs})
	if err != nil {
		return nil, err
	}
	s.st = st
	s.closers = append(s.closers, st.Close)
	return s, nil
}

// clusterSpares is how many spare device servers the fleet holds.
const clusterSpares = 2

// openClusterStack serves n active and clusterSpares spare MemDevices
// over in-process DeviceServers on loopback listeners and opens a
// cluster volume over them with staird's defaults.
func openClusterStack(ctx context.Context, code *core.Code, stripes int, t *tracer) (*stack, error) {
	s := &stack{devSectors: stripes * geoR}
	fleet := &cluster.Fleet{}
	for i := 0; i < geoN+clusterSpares; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		dev := store.NewMemDevice(s.devSectors, sectorSize)
		srv := &http.Server{Handler: store.NewDeviceServer(wrap(t, dev, "server", i))}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(ln)
		}()
		s.closers = append(s.closers, func() error {
			err := srv.Close()
			<-done
			return errors.Join(err, dev.Close())
		})
		fleet.Servers = append(fleet.Servers, cluster.Server{
			Name: fmt.Sprintf("dev%d", i), URL: "http://" + ln.Addr().String(), Spare: i >= geoN,
		})
	}
	cfg := cluster.Config{Fleet: fleet, Code: code, SectorSize: sectorSize, Stripes: stripes}
	if t != nil {
		col := 0
		cfg.Dial = func(ctx context.Context, server cluster.Server) (store.Device, error) {
			nd, err := store.DialNetDevice(ctx, server.URL, nil)
			if err != nil {
				return nil, err
			}
			col++
			return tracedNetDevice{&tracedDevice{FaultDevice: nd, t: t, prefix: "device", dev: col - 1}, nd}, nil
		}
	}
	vol, err := cluster.Open(ctx, cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	s.vol, s.st = vol, vol.Store()
	s.closers = append(s.closers, vol.Close)
	return s, nil
}
