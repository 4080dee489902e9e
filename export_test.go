package sparsehypercube

import (
	"io"
	"sync/atomic"

	"sparsehypercube/internal/linecomm"
)

// CountingReaderAt is an io.ReaderAt that counts the bytes read through
// it, for the read-volume gates and benchmarks of both test packages.
type CountingReaderAt struct {
	R io.ReaderAt
	n atomic.Int64
}

// ReadAt implements io.ReaderAt.
func (c *CountingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.R.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// Swap returns the bytes read so far and restarts the count from zero.
func (c *CountingReaderAt) Swap() int64 { return c.n.Swap(0) }

// CountCallPaths starts counting the streamed validators' calls by
// path, broadcast calls and gossip exchanges alike: the returned
// function reports how many the CSR engine's clean-call kernels
// accepted, and how many took the exact path, since CountCallPaths was
// called. The counts are process-wide
// (linecomm.CallPaths), so callers must not validate concurrently with
// other tests.
func CountCallPaths() func() (kernel, exact int64) {
	k0, e0 := linecomm.CallPaths()
	return func() (int64, int64) {
		k, e := linecomm.CallPaths()
		return k - k0, e - e0
	}
}
