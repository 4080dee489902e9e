package sparsehypercube

import (
	"io"
	"sync/atomic"
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
