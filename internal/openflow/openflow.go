// Package openflow implements the subset of the OpenFlow protocol the
// paper's attacks and defenses exercise: Hello/Echo, Features, Packet-In,
// Packet-Out, Flow-Mod, Port-Status and the flow/port statistics messages
// SPHINX consumes. Messages carry a real binary wire encoding (header +
// body, big-endian) so control-plane traffic in the simulation is actual
// bytes, as it is in the paper's testbed.
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the protocol version byte carried in every header. The
// simulation speaks a single dialect modeled on OpenFlow 1.0, which is what
// Floodlight + TopoGuard used.
const Version = 0x01

// MessageType identifies an OpenFlow message body.
type MessageType uint8

// Message type codes (OpenFlow 1.0 numbering).
const (
	TypeHello           MessageType = 0
	TypeEchoRequest     MessageType = 2
	TypeEchoReply       MessageType = 3
	TypeFeaturesRequest MessageType = 5
	TypeFeaturesReply   MessageType = 6
	TypePacketIn        MessageType = 10
	TypePortStatus      MessageType = 12
	TypePacketOut       MessageType = 13
	TypeFlowMod         MessageType = 14
	TypeStatsRequest    MessageType = 16
	TypeStatsReply      MessageType = 17
	TypeBarrierRequest  MessageType = 18
	TypeBarrierReply    MessageType = 19
)

// String names the message type.
func (t MessageType) String() string {
	switch t {
	case TypeHello:
		return "Hello"
	case TypeEchoRequest:
		return "EchoRequest"
	case TypeEchoReply:
		return "EchoReply"
	case TypeFeaturesRequest:
		return "FeaturesRequest"
	case TypeFeaturesReply:
		return "FeaturesReply"
	case TypePacketIn:
		return "PacketIn"
	case TypePortStatus:
		return "PortStatus"
	case TypePacketOut:
		return "PacketOut"
	case TypeFlowMod:
		return "FlowMod"
	case TypeStatsRequest:
		return "StatsRequest"
	case TypeStatsReply:
		return "StatsReply"
	case TypeBarrierRequest:
		return "BarrierRequest"
	case TypeBarrierReply:
		return "BarrierReply"
	default:
		return fmt.Sprintf("MessageType(%d)", uint8(t))
	}
}

// Reserved port numbers (OpenFlow 1.0).
const (
	// PortMax is the highest valid physical port number.
	PortMax uint32 = 0xff00
	// PortInPort outputs back through the packet's ingress port.
	PortInPort uint32 = 0xfff8
	// PortFlood outputs to all physical ports except ingress.
	PortFlood uint32 = 0xfffb
	// PortAll outputs to all physical ports including ingress.
	PortAll uint32 = 0xfffc
	// PortController punts the packet to the controller.
	PortController uint32 = 0xfffd
	// PortNone indicates no port (e.g. PacketOut not tied to a buffer).
	PortNone uint32 = 0xffff
)

// NoBuffer indicates a PacketIn/PacketOut carrying full packet data rather
// than a switch-side buffer reference.
const NoBuffer uint32 = 0xffffffff

// PacketIn reasons.
const (
	ReasonNoMatch uint8 = 0
	ReasonAction  uint8 = 1
)

// PortStatus reasons.
const (
	PortReasonAdd    uint8 = 0
	PortReasonDelete uint8 = 1
	PortReasonModify uint8 = 2
)

// Decode errors.
var (
	ErrTruncated   = errors.New("openflow: truncated message")
	ErrBadVersion  = errors.New("openflow: unsupported version")
	ErrUnknownType = errors.New("openflow: unknown message type")
)

const headerLen = 8

// Message is any OpenFlow message body.
type Message interface {
	// MessageType reports the wire type code for the body.
	MessageType() MessageType
	// encodeBody appends the body encoding (everything after the header).
	encodeBody(buf []byte) []byte
}

// Marshal encodes a message (header + body) into wire bytes.
func Marshal(xid uint32, m Message) []byte {
	return AppendMarshal(make([]byte, 0, headerLen+64), xid, m)
}

// AppendMarshal appends a message's wire encoding (header + body) to buf
// and returns the extended slice. Hot control-path senders call it with a
// reused scratch buffer so marshaling a message does not allocate; the
// send contract (see dataplane.SetControlSender and controller.Conn)
// requires receivers not to retain the buffer past the call.
func AppendMarshal(buf []byte, xid uint32, m Message) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = m.encodeBody(buf)
	hdr := buf[start:]
	hdr[0] = Version
	hdr[1] = byte(m.MessageType())
	binary.BigEndian.PutUint16(hdr[2:4], uint16(len(buf)-start))
	binary.BigEndian.PutUint32(hdr[4:8], xid)
	return buf
}

// Unmarshal decodes one message from wire bytes, returning the transaction
// id and the typed body. The message owns its memory: its byte slices are
// copies, so the caller may reuse b.
func Unmarshal(b []byte) (xid uint32, m Message, err error) {
	xid, m, err = Decode(b)
	switch msg := m.(type) {
	case *EchoRequest:
		msg.Data = clone(msg.Data)
	case *EchoReply:
		msg.Data = clone(msg.Data)
	case *PacketIn:
		msg.Data = clone(msg.Data)
	case *PacketOut:
		msg.Data = clone(msg.Data)
	}
	return xid, m, err
}

// clone returns an exact-length copy of b.
func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Decode decodes one message like Unmarshal, but in place: the echo,
// PacketIn and PacketOut data of the returned message alias b. Use it on
// a buffer nobody writes while the message is in use. Every control
// message a receiver is handed is one for the length of its handler:
// link.Channel delivers each send's own copy, which it reuses only after
// the handler returns, and ofnet.Conn.ReceiveRaw reads each message into
// a fresh buffer.
func Decode(b []byte) (xid uint32, m Message, err error) { return decode(b, nil) }

// Decoder decodes like Decode, and also reuses one PacketIn and one
// PacketOut value across calls, so a receiver that is done with each
// message before it decodes the next pays no allocation for either. A
// PacketIn or PacketOut a Decoder returns, its action list included, is
// valid until the Decoder's next call.
type Decoder struct {
	packetIn  PacketIn
	packetOut PacketOut
}

// Decode decodes one message in place; see Decoder.
func (d *Decoder) Decode(b []byte) (xid uint32, m Message, err error) { return decode(b, d) }

// decode is Decode, reusing d's messages when d is not nil.
func decode(b []byte, d *Decoder) (xid uint32, m Message, err error) {
	if len(b) < headerLen {
		return 0, nil, fmt.Errorf("%w: header needs %d bytes, have %d", ErrTruncated, headerLen, len(b))
	}
	if b[0] != Version {
		return 0, nil, fmt.Errorf("%w: 0x%02x", ErrBadVersion, b[0])
	}
	length := int(binary.BigEndian.Uint16(b[2:4]))
	if length < headerLen || length > len(b) {
		return 0, nil, fmt.Errorf("%w: declared length %d, have %d", ErrTruncated, length, len(b))
	}
	xid = binary.BigEndian.Uint32(b[4:8])
	body := b[headerLen:length]
	typ := MessageType(b[1])
	switch typ {
	case TypeHello:
		m, err = &Hello{}, nil
	case TypeEchoRequest:
		m, err = decodeEcho(body, false)
	case TypeEchoReply:
		m, err = decodeEcho(body, true)
	case TypeFeaturesRequest:
		m, err = &FeaturesRequest{}, nil
	case TypeFeaturesReply:
		m, err = decodeFeaturesReply(body)
	case TypePacketIn:
		var p *PacketIn
		if d != nil {
			p = &d.packetIn
		} else {
			p = new(PacketIn)
		}
		m, err = p, decodePacketIn(body, p)
	case TypePortStatus:
		m, err = decodePortStatus(body)
	case TypePacketOut:
		var p *PacketOut
		if d != nil {
			p = &d.packetOut
		} else {
			p = new(PacketOut)
		}
		m, err = p, decodePacketOut(body, p)
	case TypeFlowMod:
		m, err = decodeFlowMod(body)
	case TypeStatsRequest:
		m, err = decodeStatsRequest(body)
	case TypeStatsReply:
		m, err = decodeStatsReply(body)
	case TypeBarrierRequest:
		m, err = &BarrierRequest{}, nil
	case TypeBarrierReply:
		m, err = &BarrierReply{}, nil
	default:
		return 0, nil, fmt.Errorf("%w: %d", ErrUnknownType, b[1])
	}
	if err != nil {
		return 0, nil, fmt.Errorf("decode %s: %w", typ, err)
	}
	return xid, m, nil
}

// Hello opens a controller-switch session.
type Hello struct{}

// MessageType implements Message.
func (*Hello) MessageType() MessageType { return TypeHello }

func (*Hello) encodeBody(buf []byte) []byte { return buf }

// EchoRequest measures control-channel liveness and latency. TopoGuard+'s
// Link Latency Inspector drives these to estimate per-switch control-link
// delay.
type EchoRequest struct {
	Data []byte
}

// MessageType implements Message.
func (*EchoRequest) MessageType() MessageType { return TypeEchoRequest }

func (e *EchoRequest) encodeBody(buf []byte) []byte { return append(buf, e.Data...) }

// EchoReply answers an EchoRequest, mirroring its payload.
type EchoReply struct {
	Data []byte
}

// MessageType implements Message.
func (*EchoReply) MessageType() MessageType { return TypeEchoReply }

func (e *EchoReply) encodeBody(buf []byte) []byte { return append(buf, e.Data...) }

func decodeEcho(body []byte, reply bool) (Message, error) {
	data := body[:len(body):len(body)]
	if reply {
		return &EchoReply{Data: data}, nil
	}
	return &EchoRequest{Data: data}, nil
}

// FeaturesRequest asks a switch for its datapath description.
type FeaturesRequest struct{}

// MessageType implements Message.
func (*FeaturesRequest) MessageType() MessageType { return TypeFeaturesRequest }

func (*FeaturesRequest) encodeBody(buf []byte) []byte { return buf }

// BarrierRequest asks the switch to finish all preceding messages before
// answering; the controller uses it to order FlowMods.
type BarrierRequest struct{}

// MessageType implements Message.
func (*BarrierRequest) MessageType() MessageType { return TypeBarrierRequest }

func (*BarrierRequest) encodeBody(buf []byte) []byte { return buf }

// BarrierReply answers a BarrierRequest.
type BarrierReply struct{}

// MessageType implements Message.
func (*BarrierReply) MessageType() MessageType { return TypeBarrierReply }

func (*BarrierReply) encodeBody(buf []byte) []byte { return buf }

// PortDesc describes one switch port.
type PortDesc struct {
	No   uint32
	Name string // at most 16 bytes on the wire
	Up   bool
}

const portDescLen = 4 + 16 + 1

func (p *PortDesc) encode(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, p.No)
	name := make([]byte, 16)
	copy(name, p.Name)
	buf = append(buf, name...)
	if p.Up {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func decodePortDesc(b []byte) (PortDesc, error) {
	if len(b) < portDescLen {
		return PortDesc{}, fmt.Errorf("%w: port desc needs %d bytes", ErrTruncated, portDescLen)
	}
	name := b[4:20]
	end := 0
	for end < len(name) && name[end] != 0 {
		end++
	}
	return PortDesc{
		No:   binary.BigEndian.Uint32(b[0:4]),
		Name: string(name[:end]),
		Up:   b[20] == 1,
	}, nil
}

// FeaturesReply announces a switch's datapath id and ports.
type FeaturesReply struct {
	DatapathID uint64
	Ports      []PortDesc
}

// MessageType implements Message.
func (*FeaturesReply) MessageType() MessageType { return TypeFeaturesReply }

func (f *FeaturesReply) encodeBody(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, f.DatapathID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(f.Ports)))
	for i := range f.Ports {
		buf = f.Ports[i].encode(buf)
	}
	return buf
}

func decodeFeaturesReply(b []byte) (Message, error) {
	if len(b) < 10 {
		return nil, fmt.Errorf("%w: features reply needs 10 bytes", ErrTruncated)
	}
	f := &FeaturesReply{DatapathID: binary.BigEndian.Uint64(b[0:8])}
	n := int(binary.BigEndian.Uint16(b[8:10]))
	b = b[10:]
	f.Ports = make([]PortDesc, 0, n)
	for i := 0; i < n; i++ {
		p, err := decodePortDesc(b)
		if err != nil {
			return nil, err
		}
		f.Ports = append(f.Ports, p)
		b = b[portDescLen:]
	}
	return f, nil
}

// PacketIn punts a dataplane packet to the controller.
type PacketIn struct {
	BufferID uint32
	InPort   uint32
	Reason   uint8
	Data     []byte // raw Ethernet frame
}

// MessageType implements Message.
func (*PacketIn) MessageType() MessageType { return TypePacketIn }

func (p *PacketIn) encodeBody(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, p.BufferID)
	buf = binary.BigEndian.AppendUint32(buf, p.InPort)
	buf = append(buf, p.Reason)
	return append(buf, p.Data...)
}

func decodePacketIn(b []byte, p *PacketIn) error {
	if len(b) < 9 {
		return fmt.Errorf("%w: packet-in needs 9 bytes", ErrTruncated)
	}
	*p = PacketIn{
		BufferID: binary.BigEndian.Uint32(b[0:4]),
		InPort:   binary.BigEndian.Uint32(b[4:8]),
		Reason:   b[8],
		Data:     b[9:len(b):len(b)],
	}
	return nil
}

// PortStatus announces a port state change (the Port-Down / Port-Up events
// at the center of the port amnesia attack).
type PortStatus struct {
	Reason uint8
	Desc   PortDesc
}

// MessageType implements Message.
func (*PortStatus) MessageType() MessageType { return TypePortStatus }

func (p *PortStatus) encodeBody(buf []byte) []byte {
	buf = append(buf, p.Reason)
	return p.Desc.encode(buf)
}

func decodePortStatus(b []byte) (Message, error) {
	if len(b) < 1+portDescLen {
		return nil, fmt.Errorf("%w: port status needs %d bytes", ErrTruncated, 1+portDescLen)
	}
	desc, err := decodePortDesc(b[1:])
	if err != nil {
		return nil, err
	}
	return &PortStatus{Reason: b[0], Desc: desc}, nil
}

// PacketOut injects a packet into the dataplane with an action list.
type PacketOut struct {
	BufferID uint32
	InPort   uint32
	Actions  []Action
	Data     []byte
}

// MessageType implements Message.
func (*PacketOut) MessageType() MessageType { return TypePacketOut }

func (p *PacketOut) encodeBody(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, p.BufferID)
	buf = binary.BigEndian.AppendUint32(buf, p.InPort)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Actions)))
	for _, a := range p.Actions {
		buf = a.encode(buf)
	}
	return append(buf, p.Data...)
}

// decodePacketOut decodes into p, reusing the capacity of p's action
// list.
func decodePacketOut(b []byte, p *PacketOut) error {
	if len(b) < 10 {
		return fmt.Errorf("%w: packet-out needs 10 bytes", ErrTruncated)
	}
	n := int(binary.BigEndian.Uint16(b[8:10]))
	actions, rest, err := decodeActions(p.Actions, b[10:], n)
	if err != nil {
		return err
	}
	*p = PacketOut{
		BufferID: binary.BigEndian.Uint32(b[0:4]),
		InPort:   binary.BigEndian.Uint32(b[4:8]),
		Actions:  actions,
		Data:     rest[:len(rest):len(rest)],
	}
	return nil
}

// FlowMod commands.
const (
	FlowAdd    uint8 = 0
	FlowModify uint8 = 1
	FlowDelete uint8 = 3
)

// FlowMod installs, modifies or removes flow table entries.
type FlowMod struct {
	Command     uint8
	Match       Match
	Priority    uint16
	IdleTimeout uint16 // seconds; 0 = permanent
	HardTimeout uint16 // seconds; 0 = permanent
	Actions     []Action
}

// MessageType implements Message.
func (*FlowMod) MessageType() MessageType { return TypeFlowMod }

func (f *FlowMod) encodeBody(buf []byte) []byte {
	buf = append(buf, f.Command)
	buf = f.Match.encode(buf)
	buf = binary.BigEndian.AppendUint16(buf, f.Priority)
	buf = binary.BigEndian.AppendUint16(buf, f.IdleTimeout)
	buf = binary.BigEndian.AppendUint16(buf, f.HardTimeout)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(f.Actions)))
	for _, a := range f.Actions {
		buf = a.encode(buf)
	}
	return buf
}

func decodeFlowMod(b []byte) (Message, error) {
	if len(b) < 1+matchLen+8 {
		return nil, fmt.Errorf("%w: flow-mod needs %d bytes", ErrTruncated, 1+matchLen+8)
	}
	f := &FlowMod{Command: b[0]}
	var err error
	f.Match, err = decodeMatch(b[1 : 1+matchLen])
	if err != nil {
		return nil, err
	}
	rest := b[1+matchLen:]
	f.Priority = binary.BigEndian.Uint16(rest[0:2])
	f.IdleTimeout = binary.BigEndian.Uint16(rest[2:4])
	f.HardTimeout = binary.BigEndian.Uint16(rest[4:6])
	n := int(binary.BigEndian.Uint16(rest[6:8]))
	f.Actions, _, err = decodeActions(nil, rest[8:], n)
	if err != nil {
		return nil, err
	}
	return f, nil
}
