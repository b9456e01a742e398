package openflow

import (
	"encoding/binary"
	"fmt"
)

// Action is an OpenFlow output-style action. The simulation needs only the
// Output action family; reserved port numbers express flood, controller
// punt and in-port semantics.
type Action struct {
	// Port is the output port: a physical port number or one of the
	// reserved Port* constants.
	Port uint32
}

// Output constructs an output-to-port action.
func Output(port uint32) Action { return Action{Port: port} }

// OutputController constructs a punt-to-controller action.
func OutputController() Action { return Action{Port: PortController} }

// OutputFlood constructs a flood action (all ports except ingress).
func OutputFlood() Action { return Action{Port: PortFlood} }

// String renders the action for traces.
func (a Action) String() string {
	switch a.Port {
	case PortController:
		return "output(CONTROLLER)"
	case PortFlood:
		return "output(FLOOD)"
	case PortAll:
		return "output(ALL)"
	case PortInPort:
		return "output(IN_PORT)"
	default:
		return fmt.Sprintf("output(%d)", a.Port)
	}
}

const actionLen = 8

func (a Action) encode(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, 0) // action type: output
	buf = binary.BigEndian.AppendUint16(buf, actionLen)
	return binary.BigEndian.AppendUint32(buf, a.Port)
}

// decodeActions decodes n actions from the front of b into dst's storage
// when it holds n, into a new slice otherwise.
func decodeActions(dst []Action, b []byte, n int) ([]Action, []byte, error) {
	actions := dst[:0]
	if actions == nil || cap(actions) < n {
		actions = make([]Action, 0, n)
	}
	for i := 0; i < n; i++ {
		if len(b) < actionLen {
			return nil, nil, fmt.Errorf("%w: action %d needs %d bytes, have %d", ErrTruncated, i, actionLen, len(b))
		}
		length := int(binary.BigEndian.Uint16(b[2:4]))
		if length != actionLen {
			return nil, nil, fmt.Errorf("openflow: unsupported action length %d", length)
		}
		actions = append(actions, Action{Port: binary.BigEndian.Uint32(b[4:8])})
		b = b[actionLen:]
	}
	return actions, b, nil
}
