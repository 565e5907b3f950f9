// Package packet defines the wire formats of the real-time router
// (Figure 3 of the paper) and the phit-level link protocol.
//
// Each physical link carries one phit (one byte of packet data) per cycle,
// tagged with a single virtual-channel bit that separates time-constrained
// from best-effort traffic (Section 3.2); the reverse direction carries an
// acknowledgement bit used as a flit credit for the best-effort wormhole
// virtual channel. Head/Tail markers stand in for the framing the hardware
// derives from byte counting and are asserted only on the first and last
// phits of a packet.
//
// Time-constrained packets are fixed-size, 20 bytes (Figure 3a):
//
//	byte 0      connection identifier
//	byte 1      ℓ(m)+d — the local deadline at the sender, which the
//	            downstream router reads as the logical arrival time ℓ(m)
//	bytes 2-19  18 bytes of payload
//
// Best-effort packets are variable length (Figure 3b):
//
//	byte 0      x offset (signed, hops remaining in the x dimension)
//	byte 1      y offset (signed)
//	bytes 2-3   total packet length in bytes, big-endian, header included
//	bytes 4-    payload
package packet

import (
	"encoding/binary"
	"fmt"

	"repro/internal/timing"
)

// VC identifies the virtual channel a phit belongs to.
type VC uint8

const (
	// VCTime is the packet-switched virtual channel for time-constrained
	// traffic.
	VCTime VC = iota
	// VCBest is the wormhole virtual channel for best-effort traffic.
	VCBest
)

func (v VC) String() string {
	switch v {
	case VCTime:
		return "TC"
	case VCBest:
		return "BE"
	default:
		return fmt.Sprintf("VC(%d)", uint8(v))
	}
}

// Phit is one byte on a link for one cycle, plus the VC type bit and
// modelling-convenience framing markers. The sideband fields are unused
// by the real-time router; the priority-forwarding baseline model (see
// internal/baseline) uses them to propagate inherited priorities on
// otherwise idle cycles.
type Phit struct {
	Valid bool
	VC    VC
	Data  byte
	Head  bool
	Tail  bool

	SideValid bool
	Side      byte

	// Rexmit marks the first flit of a best-effort retransmission run: the
	// receiver leaves discard mode and resumes accepting at this flit.
	Rexmit bool
	// Abort marks a tail flit that terminates a frame early: the upstream
	// link died (or, best-effort, the retry budget ran out) mid-worm or
	// mid-cut-through, so the receiver must drop the partial frame — a
	// time-constrained one counted once, there — and release the output
	// binding.
	Abort bool
}

// Ack is the reverse-direction link signal: one best-effort flit credit
// per cycle (the paper's acknowledgement bit). TCCredit is unused by the
// real-time router, whose reservation model never blocks
// time-constrained traffic; the input-queued priority-forwarding
// baseline uses it for per-packet backpressure.
type Ack struct {
	BECredit bool
	TCCredit bool

	// BENack reports that the best-effort flit sampled this edge failed
	// its checksum; the sender must back up and retransmit from the nacked
	// flit. Only meaningful when the router runs with Config.Integrity.
	BENack bool
}

// Time-constrained packet geometry (Table 2 / Figure 3a).
const (
	TCBytes        = 20 // fixed time-constrained packet size
	TCHeaderBytes  = 2
	TCPayloadBytes = TCBytes - TCHeaderBytes
)

// Best-effort header geometry (Figure 3b).
const (
	BEHeaderBytes = 4
	// BEMaxBytes is the largest encodable best-effort packet (16-bit
	// length field).
	BEMaxBytes = 1<<16 - 1
)

// TCPacket is a decoded time-constrained packet.
type TCPacket struct {
	Conn    uint8 // connection identifier at the receiving router
	Stamp   uint8 // sender's ℓ+d == receiver's logical arrival time ℓ
	Payload [TCPayloadBytes]byte
}

// EncodeTC serializes a time-constrained packet into a fixed 20-byte
// frame.
func EncodeTC(p TCPacket) [TCBytes]byte {
	var b [TCBytes]byte
	b[0] = p.Conn
	b[1] = p.Stamp
	copy(b[2:], p.Payload[:])
	return b
}

// DecodeTC parses a 20-byte frame into a TCPacket.
func DecodeTC(b [TCBytes]byte) TCPacket {
	var p TCPacket
	p.Conn = b[0]
	p.Stamp = b[1]
	copy(p.Payload[:], b[2:])
	return p
}

// StampOf converts a scheduler stamp to the 8-bit header field. The
// header field width fixes the usable clock width at 8 bits for on-wire
// traffic, matching the paper's chip.
func StampOf(s timing.Stamp) uint8 { return uint8(s) }

// BEHeader is the decoded routing header of a best-effort packet.
type BEHeader struct {
	XOff int8   // remaining hops in x (positive = +x direction)
	YOff int8   // remaining hops in y
	Len  uint16 // total packet length in bytes, header included
}

// EncodeBEHeader writes the 4-byte best-effort header into dst.
func EncodeBEHeader(h BEHeader, dst []byte) {
	if len(dst) < BEHeaderBytes {
		panic("packet: EncodeBEHeader: dst too short")
	}
	dst[0] = byte(h.XOff)
	dst[1] = byte(h.YOff)
	binary.BigEndian.PutUint16(dst[2:4], h.Len)
}

// DecodeBEHeader parses the 4-byte best-effort header from src.
func DecodeBEHeader(src []byte) BEHeader {
	if len(src) < BEHeaderBytes {
		panic("packet: DecodeBEHeader: src too short")
	}
	return BEHeader{
		XOff: int8(src[0]),
		YOff: int8(src[1]),
		Len:  binary.BigEndian.Uint16(src[2:4]),
	}
}

// AppendBE appends a complete best-effort packet frame — header with the
// given offsets, then the payload — to dst and returns the extended
// slice. dst may be a recycled buffer (see router.BEFrameBuf), which is
// how steady-state sources avoid a frame allocation per packet.
func AppendBE(dst []byte, xoff, yoff int, payload []byte) ([]byte, error) {
	total := BEHeaderBytes + len(payload)
	if total > BEMaxBytes {
		return nil, fmt.Errorf("packet: best-effort packet of %d bytes exceeds %d", total, BEMaxBytes)
	}
	if xoff < -128 || xoff > 127 || yoff < -128 || yoff > 127 {
		return nil, fmt.Errorf("packet: offsets (%d,%d) exceed signed byte range", xoff, yoff)
	}
	var hdr [BEHeaderBytes]byte
	EncodeBEHeader(BEHeader{XOff: int8(xoff), YOff: int8(yoff), Len: uint16(total)}, hdr[:])
	return append(append(dst, hdr[:]...), payload...), nil
}

// NewBE builds a complete best-effort packet frame with the given offsets
// and payload in a fresh exact-size buffer. The length field covers
// header plus payload.
func NewBE(xoff, yoff int, payload []byte) ([]byte, error) {
	return AppendBE(make([]byte, 0, BEHeaderBytes+len(payload)), xoff, yoff, payload)
}

// Frame converts an encoded packet to a phit stream on the given VC.
// It is used by injection units and by tests that drive links directly.
func Frame(vc VC, data []byte) []Phit {
	ph := make([]Phit, len(data))
	for i, d := range data {
		ph[i] = Phit{
			Valid: true,
			VC:    vc,
			Data:  d,
			Head:  i == 0,
			Tail:  i == len(data)-1,
		}
	}
	return ph
}
