package router

import (
	"fmt"

	"repro/internal/sched"
)

// ConnEntry is one connection-table row (Section 4.1): indexed by the
// incoming connection identifier, it supplies the identifier to use at
// the next hop, the local delay bound d, and the bit mask of output
// ports an arriving packet fans out to (several bits for multicast; a
// multicast connection uses the same d on every branch at this node).
type ConnEntry struct {
	Valid bool
	Out   uint8
	Delay uint8
	Mask  sched.PortMask
}

// ControlField names one staging register of the control interface. To
// minimize pin count the controlling processor programs the router as a
// sequence of single-field writes (Table 3): a connection entry is four
// writes, committed by the incoming-id write; a horizon update is two,
// committed by the value write.
type ControlField int

const (
	// CtlOutConn stages the outgoing connection identifier.
	CtlOutConn ControlField = iota
	// CtlDelay stages the local delay bound d, in slots.
	CtlDelay
	// CtlPortMask stages the output-port bit mask.
	CtlPortMask
	// CtlCommitConn writes the staged entry at the given incoming id.
	CtlCommitConn
	// CtlHorizonMask stages the output-port mask for a horizon update.
	CtlHorizonMask
	// CtlHorizonValue sets the staged ports' horizon to the value, in
	// slots, and commits.
	CtlHorizonValue
)

// controlIface holds the staging registers of the control interface.
type controlIface struct {
	outConn  uint8
	delay    uint8
	mask     sched.PortMask
	horizonM sched.PortMask
}

// ControlWrite performs one control-interface write (Table 3). Commits
// take effect immediately: the paper performs connection establishment
// before data transfer on the affected connection, so no packets race the
// update.
func (r *Router) ControlWrite(f ControlField, v uint8) error {
	c := &r.ctl
	switch f {
	case CtlOutConn:
		c.outConn = v
	case CtlDelay:
		if !r.wheel.ValidDelay(int64(v)) {
			return fmt.Errorf("router %s: delay %d violates half-clock-range bound %d",
				r.name, v, r.wheel.HalfRange())
		}
		c.delay = v
	case CtlPortMask:
		if v >= 1<<NumPorts {
			return fmt.Errorf("router %s: port mask %#x has bits beyond %d ports", r.name, v, NumPorts)
		}
		c.mask = sched.PortMask(v)
	case CtlCommitConn:
		if int(v) >= len(r.table) {
			return fmt.Errorf("router %s: incoming connection id %d exceeds table size %d",
				r.name, v, len(r.table))
		}
		if int(c.outConn) >= r.cfg.Conns {
			return fmt.Errorf("router %s: outgoing connection id %d exceeds table size %d",
				r.name, c.outConn, r.cfg.Conns)
		}
		r.table[v] = ConnEntry{Valid: true, Out: c.outConn, Delay: c.delay, Mask: c.mask}
	case CtlHorizonMask:
		if v >= 1<<NumPorts {
			return fmt.Errorf("router %s: horizon port mask %#x has bits beyond %d ports", r.name, v, NumPorts)
		}
		c.horizonM = sched.PortMask(v)
	case CtlHorizonValue:
		if !r.wheel.ValidDelay(int64(v)) {
			return fmt.Errorf("router %s: horizon %d violates half-clock-range bound %d",
				r.name, v, r.wheel.HalfRange())
		}
		// The horizon is the one control register Select reads: the
		// ports' quiet spans end here, and a resting router re-derives
		// its state from a full tick.
		r.wake()
		for p := 0; p < NumPorts; p++ {
			if c.horizonM.Has(p) {
				r.horizons[p] = uint32(v)
			}
		}
		r.forgetQuiet(c.horizonM)
	default:
		return fmt.Errorf("router %s: unknown control field %d", r.name, int(f))
	}
	return nil
}

// SetConnection programs one connection-table entry using the Table 3
// four-write sequence.
func (r *Router) SetConnection(in, out, delay uint8, mask sched.PortMask) error {
	for _, w := range []struct {
		f ControlField
		v uint8
	}{
		{CtlOutConn, out},
		{CtlDelay, delay},
		{CtlPortMask, uint8(mask)},
		{CtlCommitConn, in},
	} {
		if err := r.ControlWrite(w.f, w.v); err != nil {
			return err
		}
	}
	return nil
}

// ClearConnection invalidates a connection-table entry (teardown).
func (r *Router) ClearConnection(in uint8) error {
	if int(in) >= len(r.table) {
		return fmt.Errorf("router %s: incoming connection id %d exceeds table size %d",
			r.name, in, len(r.table))
	}
	r.table[in] = ConnEntry{}
	return nil
}

// SetHorizon programs the horizon parameter of every port in mask using
// the Table 3 two-write sequence.
func (r *Router) SetHorizon(mask sched.PortMask, h uint8) error {
	if err := r.ControlWrite(CtlHorizonMask, uint8(mask)); err != nil {
		return err
	}
	return r.ControlWrite(CtlHorizonValue, h)
}

// Horizon returns the current horizon parameter of a port.
func (r *Router) Horizon(port int) uint32 { return r.horizons[port] }

// Connection returns a copy of the table entry for an incoming id.
func (r *Router) Connection(in uint8) ConnEntry {
	if int(in) >= len(r.table) {
		return ConnEntry{}
	}
	return r.table[in]
}
