package shttp

import (
	"io"

	"tango/internal/netsim"
)

// Relay copies src to dst through a pooled buffer, for a dst that hides
// io.ReaderFrom (io.Copy would allocate a fresh 32 KiB buffer per call). It
// returns the bytes written and the first error. Relay buffers, here and in
// RelayBufferPool, are netsim blocks, the one pool of 32 KiB buffers, which
// squic's full-size send blocks share.
func Relay(dst io.Writer, src io.Reader) (int64, error) {
	b := netsim.GetBlock()
	defer netsim.PutBlock(b)
	return io.CopyBuffer(dst, src, b[:])
}

// RelayBufferPool is the httputil.BufferPool over the block pool, for an
// httputil.ReverseProxy's body copies.
type RelayBufferPool struct{}

// Get leases a relay buffer.
func (RelayBufferPool) Get() []byte { return netsim.GetBlock()[:] }

// Put returns a buffer from Get. A buffer of any other capacity is left to
// the GC.
func (RelayBufferPool) Put(b []byte) {
	if cap(b) != netsim.BlockSize {
		return
	}
	netsim.PutBlock((*netsim.Block)(b[:netsim.BlockSize]))
}
