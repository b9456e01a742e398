package link

import (
	"sync"

	"sdntamper/internal/openflow"
)

// Frame is one dataplane wire frame: its bytes, the OpenFlow match tuple
// parsed from them, and the ownership state that makes recycling them
// safe. A frame has exactly one owner at a time (see the buffer ownership
// contract in link.go). The owner either hands the frame on — Link.Send
// takes it, and delivery hands it to the peer's ReceiveFrame — or ends it
// with Release, which returns its buffer to the package's pool. Nothing
// may read Data after handing the frame on or releasing it.
//
// A frame is never written after it is made, and switch actions only
// output it, so its tuple depends on nothing but the bytes and the port
// it arrives on. Fields parses the bytes once, at the first switch that
// reads them, and every later hop reuses the result; Copy carries it to
// a copy, and NewFrame clears it.
type Frame struct {
	// Data is the frame's bytes, Ethernet header first.
	Data []byte

	fields   openflow.Fields // the parsed tuple, InPort zero; valid if parsed
	parsed   bool
	released bool
}

// framePool recycles frames across every link and shard: sync.Pool is
// goroutine-safe, so a frame built on one shard may be released on
// another. A recycled frame keeps its buffer, which NewFrame grows with
// append as needed, so steady-state traffic allocates nothing per frame.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// NewFrame returns a pooled frame holding a copy of data, owned by the
// caller and not yet parsed. data may be reused as soon as NewFrame
// returns.
func NewFrame(data []byte) *Frame {
	f := framePool.Get().(*Frame)
	f.Data = append(f.Data[:0], data...)
	f.parsed = false
	f.released = false
	return f
}

// Copy returns a pooled copy of f, owned by the caller: the bytes and,
// if f was parsed, its tuple, so the copy is never parsed again.
func (f *Frame) Copy() *Frame {
	c := NewFrame(f.Data)
	c.fields, c.parsed = f.fields, f.parsed
	return c
}

// Fields returns the frame's match tuple as received on inPort. The first
// call parses the bytes with openflow.ExtractFields, the one parser, and
// caches the result; later calls, on any port, only stamp InPort on it.
func (f *Frame) Fields(inPort uint32) openflow.Fields {
	if !f.parsed {
		f.fields = openflow.ExtractFields(0, f.Data)
		f.parsed = true
	}
	fields := f.fields
	fields.InPort = inPort
	return fields
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
