package shttp

import (
	"io"
	"sync"
)

// relayBufSize is the size of a relay buffer, io.Copy's default.
const relayBufSize = 32 << 10

// relayBufs is the one pool of buffers that relay HTTP bodies: the skip
// proxy's response copy (Relay) and the SCION reverse proxy
// (RelayBufferPool). It holds array pointers, so Get and Put move a pointer
// and a []byte handed back by httputil converts to one without allocating.
// A sync.Pool and not netsim.GetBuf: the pool empties across GCs, so relay
// buffers do not outlive the traffic that needed them.
var relayBufs = sync.Pool{New: func() any { return new([relayBufSize]byte) }}

// Relay copies src to dst through a pooled buffer, for a dst that hides
// io.ReaderFrom (io.Copy would allocate a fresh 32 KiB buffer per call). It
// returns the bytes written and the first error.
func Relay(dst io.Writer, src io.Reader) (int64, error) {
	b := relayBufs.Get().(*[relayBufSize]byte)
	defer relayBufs.Put(b)
	return io.CopyBuffer(dst, src, b[:])
}

// RelayBufferPool is the httputil.BufferPool over the relay pool, for an
// httputil.ReverseProxy's body copies.
type RelayBufferPool struct{}

// Get leases a relay buffer.
func (RelayBufferPool) Get() []byte { return relayBufs.Get().(*[relayBufSize]byte)[:] }

// Put returns a buffer from Get. A buffer of any other capacity is left to
// the GC.
func (RelayBufferPool) Put(b []byte) {
	if cap(b) != relayBufSize {
		return
	}
	relayBufs.Put((*[relayBufSize]byte)(b[:relayBufSize]))
}
