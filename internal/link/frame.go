package link

import "sync"

// Frame is one dataplane wire frame: its bytes plus the ownership state
// that makes recycling them safe. A frame has exactly one owner at a
// time (see the buffer ownership contract in link.go). The owner either
// hands the frame on — Link.Send takes it, and delivery hands it to the
// peer's ReceiveFrame — or ends it with Release, which returns its
// buffer to the package's pool. Nothing may read Data after handing the
// frame on or releasing it.
type Frame struct {
	// Data is the frame's bytes, Ethernet header first.
	Data []byte

	released bool
}

// framePool recycles frames across every link and shard: sync.Pool is
// goroutine-safe, so a frame built on one shard may be released on
// another. A recycled frame keeps its buffer, which NewFrame grows with
// append as needed, so steady-state traffic allocates nothing per frame.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// NewFrame returns a pooled frame holding a copy of data, owned by the
// caller. data may be reused as soon as NewFrame returns.
func NewFrame(data []byte) *Frame {
	f := framePool.Get().(*Frame)
	f.Data = append(f.Data[:0], data...)
	f.released = false
	return f
}

// Release ends the owner's hold on f and recycles its buffer. Releasing
// a frame twice panics: it means two holders believed they owned it. In
// race-detector builds the bytes are overwritten first, so a holder that
// reads a released frame sees garbage instead of stale data.
func (f *Frame) Release() {
	if f.released {
		panic("link: frame released twice")
	}
	f.released = true
	if scrubReleased {
		for i := range f.Data {
			f.Data[i] = 0xdd
		}
	}
	framePool.Put(f)
}
